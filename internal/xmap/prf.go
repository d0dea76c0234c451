package xmap

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/ipv6"
	"repro/internal/uint128"
)

// subPRF derives each sub-prefix's pseudo-random material — the host IID
// the probe targets (Section III-B's nonexistent-address IID) and the
// 32-bit stateless validation value. The scan seed is expanded once
// through HMAC-SHA256 into four 64-bit subkeys; per sub-prefix the
// derivation is a keyed splitmix64-style mixer (multiply-xorshift
// avalanche rounds over the keyed address limbs). The previous
// implementation ran the full HMAC per sub-prefix, which was over a
// quarter of the entire send path's CPU; the mixer is a few
// nanoseconds.
//
// The mixer is not a cryptographic MAC. For the simulator that trade is
// free — validation only needs to reject accidental and replayed
// traffic deterministically, and the adversary is the test suite. A
// production raw-socket driver wanting HMAC-grade validation against
// active spoofing swaps derive for a keyed MAC without touching either
// tool: the scanner and the loop detector both derive through
// Derivation, so its cache and their call sites are unchanged.
type subPRF struct {
	k0, k1, k2, k3 uint64
}

// prfLabel domain-separates the subkey expansion from other uses of the
// scan seed (the permutation derives its own keys independently).
var prfLabel = []byte("xmap-sub-prf-v1")

// newSubPRF expands seed into the mixer subkeys.
func newSubPRF(seed []byte) subPRF {
	mac := hmac.New(sha256.New, seed)
	mac.Write(prfLabel)
	sum := mac.Sum(nil)
	return subPRF{
		k0: binary.BigEndian.Uint64(sum[0:8]),
		k1: binary.BigEndian.Uint64(sum[8:16]),
		k2: binary.BigEndian.Uint64(sum[16:24]),
		k3: binary.BigEndian.Uint64(sum[24:32]),
	}
}

// mix64 is the splitmix64 finalizer: a bijective avalanche on 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// derive maps one sub-prefix base address (as 128-bit limbs) to the
// host-IID limbs and the validation value. Both address limbs feed the
// shared core x, then each output word gets its own subkey and final
// avalanche so the words are pairwise independent.
func (p subPRF) derive(hi, lo uint64) (iidHi, iidLo uint64, val uint32) {
	x := mix64(mix64(hi^p.k0) ^ lo ^ p.k1)
	iidHi = mix64(x ^ p.k2)
	iidLo = mix64(x ^ p.k3)
	val = uint32(mix64(x + p.k0))
	return
}

// Derivation is the per-window keyed derivation of probe targets and
// their stateless validation values, shared by the scanner and the loop
// detector. One subPRF call per sub-prefix feeds both the target IID
// and the validation value, and the one-entry cache means a send path
// that calls TargetFor and then Validation on the resulting target
// derives once, not twice. A Derivation is not safe for concurrent use.
type Derivation struct {
	window       ipv6.Window
	prf          subPRF
	lastSub      ipv6.Addr
	haveSub      bool
	subHi, subLo uint64 // cached host-IID limbs for lastSub
	subVal       uint32 // cached validation value for lastSub
}

// NewDerivation keys the derivation for window w with seed. Only
// w.To matters to Validation, so a window of /128 sub-prefixes binds
// each validation value to one exact address.
func NewDerivation(w ipv6.Window, seed []byte) Derivation {
	return Derivation{window: w, prf: newSubPRF(seed)}
}

// subDerive computes (or returns from the one-entry cache) the PRF
// material for one sub-prefix base address.
func (d *Derivation) subDerive(sub ipv6.Addr) {
	if d.haveSub && sub == d.lastSub {
		return
	}
	u := sub.Uint128()
	d.subHi, d.subLo, d.subVal = d.prf.derive(u.Hi, u.Lo)
	d.lastSub, d.haveSub = sub, true
}

// Validation derives the stateless validation value for dst. The value
// is bound to the window sub-prefix containing dst (a sweep probes one
// address per sub, so this loses no discrimination) and comes from the
// same keyed derivation that generates the target IID.
func (d *Derivation) Validation(dst ipv6.Addr) uint32 {
	p, err := ipv6.NewPrefix(dst, d.window.To)
	if err != nil {
		return 0
	}
	d.subDerive(p.Addr())
	return d.subVal
}

// TargetFor returns the probe address for a window index: the sub-prefix
// base combined with a pseudo-random host part (the nonexistent-address
// IID of Section III-B).
func (d *Derivation) TargetFor(idx uint128.Uint128) (ipv6.Addr, error) {
	sub, err := d.window.Sub(idx)
	if err != nil {
		return ipv6.Addr{}, err
	}
	hostBits := uint(128 - d.window.To)
	if hostBits == 0 {
		return sub.Addr(), nil
	}
	d.subDerive(sub.Addr())
	host := uint128.New(d.subHi, d.subLo)
	if hostBits < 128 {
		host = host.And(uint128.Max.Rsh(128 - hostBits))
	}
	if host.IsZero() {
		host = uint128.One // never probe the subnet-router anycast address
	}
	return ipv6.AddrFrom128(sub.Addr().Uint128().Or(host)), nil
}
