//go:build fault

package fault

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestRegistrySemantics(t *testing.T) {
	Reset()
	Register("t.a", "t.b")
	Register("t.a") // idempotent
	if !Enabled() {
		t.Fatal("Enabled() = false under the fault build tag")
	}
	names := Registered()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	if !seen["t.a"] || !seen["t.b"] {
		t.Fatalf("Registered() = %v, missing t.a/t.b", names)
	}
	if err := Arm("t.unknown", Spec{}); err == nil {
		t.Fatal("Arm on unknown point succeeded")
	}
}

func TestUnarmedPointIsNil(t *testing.T) {
	Reset()
	Register("t.idle")
	for i := 0; i < 5; i++ {
		if err := Point("t.idle"); err != nil {
			t.Fatalf("unarmed hit %d: %v", i, err)
		}
	}
	if hits, fires := Hits("t.idle"); hits != 5 || fires != 0 {
		t.Fatalf("Hits = (%d, %d), want (5, 0)", hits, fires)
	}
}

func TestSkipAndLimitAreDeterministic(t *testing.T) {
	Reset()
	Register("t.skip")
	if err := Arm("t.skip", Spec{Mode: ModeError, Skip: 2, Limit: 3}); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 0; i < 10; i++ {
		if err := Point("t.skip"); err != nil {
			fired = append(fired, i)
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: %v not ErrInjected", i, err)
			}
		}
	}
	want := []int{2, 3, 4} // fires on hits 3..5 (Skip=2), Limit 3
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired on hits %v, want %v", fired, want)
	}
}

func TestErrOverride(t *testing.T) {
	Reset()
	Register("t.err")
	custom := errors.New("custom failure")
	if err := Arm("t.err", Spec{Mode: ModeError, Err: custom}); err != nil {
		t.Fatal(err)
	}
	if err := Point("t.err"); !errors.Is(err, custom) {
		t.Fatalf("Point() = %v, want custom error", err)
	}
}

func TestPanicMode(t *testing.T) {
	Reset()
	Register("t.panic")
	if err := Arm("t.panic", Spec{Mode: ModePanic}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("armed ModePanic point did not panic")
		}
		if s, ok := r.(string); !ok || s != "fault: injected panic at t.panic" {
			t.Fatalf("panic value = %v", r)
		}
	}()
	_ = Point("t.panic")
}

func TestDelayMode(t *testing.T) {
	Reset()
	Register("t.delay")
	if err := Arm("t.delay", Spec{Mode: ModeDelay, Delay: 30 * time.Millisecond, Limit: 1}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Point("t.delay"); err != nil {
		t.Fatalf("ModeDelay returned error: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay fired in %v, want >= 30ms", d)
	}
	// Limit reached: the second hit is counted but does not fire. The
	// registry's counters say so without a clock, which a loaded machine
	// could stall past any bound.
	_ = Point("t.delay")
	if hits, fires := Hits("t.delay"); hits != 2 || fires != 1 {
		t.Fatalf("Hits = (%d, %d) after an over-limit hit, want (2, 1)", hits, fires)
	}
}

func TestDisarmAndReset(t *testing.T) {
	Reset()
	Register("t.reset")
	if err := Arm("t.reset", Spec{Mode: ModeError}); err != nil {
		t.Fatal(err)
	}
	if err := Point("t.reset"); err == nil {
		t.Fatal("armed point did not fire")
	}
	Disarm("t.reset")
	if err := Point("t.reset"); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
	Reset()
	if hits, fires := Hits("t.reset"); hits != 0 || fires != 0 {
		t.Fatalf("Reset kept counters (%d, %d)", hits, fires)
	}
}

func TestModeString(t *testing.T) {
	if ModeError.String() != "error" || ModePanic.String() != "panic" || ModeDelay.String() != "delay" {
		t.Fatal("Mode.String() labels drifted")
	}
}
