package vcache

import "testing"

// TestPeekBytes: a probe by a buffer's bytes finds exactly the entry
// filed under the same text, version and option bits, allocates
// nothing, and keeps nothing of the buffer — an entry filed from a copy
// of it is found after the buffer is overwritten, and is not found
// under the new text.
func TestPeekBytes(t *testing.T) {
	c := New[int](0)
	buf := []byte("SELECT A FROM T WHERE A = ?int")
	c.Put(Key{Src: string(buf), CatVer: 3, Opts: 1}, 1)
	if v, ok := c.PeekBytes(buf, 3, 1); !ok || v != 1 {
		t.Fatalf("PeekBytes(%q) = %v, %v, want the entry filed under it", buf, v, ok)
	}
	for _, miss := range []struct {
		src          string
		catVer, opts uint64
	}{
		{"SELECT A FROM T WHERE A = ?str", 3, 1}, // one byte apart
		{"SELECT A FROM T WHERE A = ?int ", 3, 1},
		{"SELECT A FROM T WHERE A = ?int", 4, 1},
		{"SELECT A FROM T WHERE A = ?int", 3, 0},
	} {
		if v, ok := c.PeekBytes([]byte(miss.src), miss.catVer, miss.opts); ok {
			t.Errorf("PeekBytes(%q, %d, %d) found %v, filed under another key", miss.src, miss.catVer, miss.opts, v)
		}
	}
	copy(buf, "SELECT B FROM U WHERE B = ?str")
	if _, ok := c.PeekBytes(buf, 3, 1); ok {
		t.Errorf("the overwritten buffer %q still finds the entry", buf)
	}
	if v, ok := c.Peek(Key{Src: "SELECT A FROM T WHERE A = ?int", CatVer: 3, Opts: 1}); !ok || v != 1 {
		t.Errorf("the entry is gone once the buffer it was probed from is overwritten: %v, %v", v, ok)
	}
	long := make([]byte, 4096)
	if got := testing.AllocsPerRun(100, func() { c.PeekBytes(long, 3, 1) }); got != 0 {
		t.Errorf("PeekBytes allocates %v times per probe, want 0", got)
	}
}
