// Package kv holds the small shared vocabulary of the durable-store
// surface: sentinel errors and key-space constants that both the structure
// packages and their composites (core, shard, store) need. It sits below
// every other package in the repository — structures return these values,
// core re-exports them — so it must not import anything but the standard
// library.
package kv

import "errors"

// ErrUnordered is returned by RangeScan on structures without a key order
// (the hash table) for any range narrower than [MinKey, MaxKey]: a hashed
// key space has no order to bound a range by. The whole range is scanned,
// bucket by bucket, in no key order.
var ErrUnordered = errors.New("kv: structure kind is unordered: range scans are unsupported")

// Key-space bounds shared by every structure: user keys live in
// [MinKey, MaxKey]. Key 0 is reserved for head/root sentinels and keys at
// or above 2^61 collide with the sentinel keys and handle tag bits.
const (
	MinKey uint64 = 1
	MaxKey uint64 = 1<<61 - 1
)

// ClampKeyRange normalizes a [lo, hi] scan request against the key space:
// lo is raised to MinKey, hi lowered to MaxKey. The second return is false
// when the normalized interval is empty (nothing to scan).
func ClampKeyRange(lo, hi uint64) (uint64, uint64, bool) {
	if lo < MinKey {
		lo = MinKey
	}
	if hi > MaxKey {
		hi = MaxKey
	}
	return lo, hi, lo <= hi
}
