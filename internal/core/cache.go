package core

import (
	"strings"

	"uniqopt/internal/catalog"
	"uniqopt/internal/norm"
	"uniqopt/internal/vcache"
)

// VerdictCache memoizes the outputs of the Paulley–Larson analysis: the
// uniqueness verdicts of Algorithm 1 and the CNF-derived equality
// extraction that feeds it. The whole point of the paper's analysis is
// that uniqueness is a cheap compile-time property — the cache makes it
// near-zero-cost for repeated query shapes (verdicts do not depend on
// constants' values, only on shapes).
//
// Both halves are vcache instances: entries are keyed by the source
// rendering itself, the analyzer option set, and the catalog schema
// version, so any DDL change implicitly invalidates every entry. The
// cache is safe for concurrent use and hands out deep copies, so
// callers may mutate results freely.
type VerdictCache struct {
	verdicts *vcache.Cache[*Verdict]
	norms    *vcache.Cache[norm.Equalities]
}

// DefaultCacheEntries bounds each half of the cache.
const DefaultCacheEntries = vcache.DefaultEntries

// NewVerdictCache returns an empty cache holding at most maxEntries
// verdicts (0 = DefaultCacheEntries).
func NewVerdictCache(maxEntries int) *VerdictCache {
	return &VerdictCache{
		verdicts: vcache.New[*Verdict](maxEntries),
		norms:    vcache.New[norm.Equalities](maxEntries),
	}
}

// Counters reports cumulative hit/miss counts (verdict and
// normalization lookups combined).
func (c *VerdictCache) Counters() (hits, misses int64) {
	vh, vm := c.verdicts.Counters()
	nh, nm := c.norms.Counters()
	return vh + nh, vm + nm
}

// Len reports the number of cached verdicts.
func (c *VerdictCache) Len() int { return c.verdicts.Len() }

// Reset drops every entry and zeroes the hit/miss counters, returning
// the cache to its cold state (the benchmark harness uses this to
// compare cold and warm analysis).
func (c *VerdictCache) Reset() {
	c.verdicts.Reset()
	c.norms.Reset()
}

func (c *VerdictCache) getVerdict(k vcache.Key) (*Verdict, bool) {
	v, ok := c.verdicts.Get(k)
	if !ok {
		return nil, false
	}
	v = v.clone()
	if v.Trace != nil {
		v.Trace.CacheHit = true
	}
	return v, true
}

func (c *VerdictCache) putVerdict(k vcache.Key, v *Verdict) { c.verdicts.Put(k, v.clone()) }

func (c *VerdictCache) getNorm(k vcache.Key) (norm.Equalities, bool) {
	eq, ok := c.norms.Get(k)
	if !ok {
		return norm.Equalities{}, false
	}
	return eq.Clone(), true
}

func (c *VerdictCache) putNorm(k vcache.Key, eq norm.Equalities) { c.norms.Put(k, eq.Clone()) }

// clone deep-copies a verdict so cache consumers can mutate it.
func (v *Verdict) clone() *Verdict {
	if v == nil {
		return nil
	}
	out := &Verdict{
		Unique:       v.Unique,
		Bound:        append([]string(nil), v.Bound...),
		KeysUsed:     make(map[string][]string, len(v.KeysUsed)),
		MissingTable: v.MissingTable,
		Dropped:      v.Dropped,
		Trace:        v.Trace.clone(),
	}
	for k, cols := range v.KeysUsed {
		out.KeysUsed[k] = append([]string(nil), cols...)
	}
	if v.DerivedKeys != nil {
		out.DerivedKeys = make([][]string, len(v.DerivedKeys))
		for i, dk := range v.DerivedKeys {
			out.DerivedKeys[i] = append([]string(nil), dk...)
		}
	}
	return out
}

// Bits encodes the analyzer options into a cache-key word (the low 56
// bits; keyFor tags the entry kind above them).
func (o Options) Bits() uint64 {
	var b uint64
	if o.BindIsNull {
		b |= 1
	}
	if o.UseKeyFDs {
		b |= 2
	}
	if o.UseCheckConstraints {
		b |= 4
	}
	return b | uint64(o.MaxClauses)<<3
}

// scopeSignature renders a scope chain as a canonical string:
// correlation-name → table bindings at every depth. Two analyses over
// structurally identical scopes (same correlations bound to the same
// tables, same nesting) share a signature; the schema content behind
// the table names is covered by the catalog version.
func scopeSignature(s *catalog.Scope) string {
	var sb strings.Builder
	for ; s != nil; s = s.Outer {
		for _, st := range s.Tables {
			sb.WriteString(st.Ref.Name())
			sb.WriteByte('=')
			sb.WriteString(st.Schema.Name)
			sb.WriteByte(',')
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// keyFor builds the cache key for a source string under the analyzer's
// current options and catalog version. kind separates the entry
// families that share the verdict map: 'S' select verdict, 'M'
// at-most-one-match, 'N' norm extraction.
func (a *Analyzer) keyFor(kind byte, src string) vcache.Key {
	return vcache.Key{Src: src, CatVer: a.Cat.Version(),
		Opts: a.Opts.Bits() | uint64(kind)<<56}
}
