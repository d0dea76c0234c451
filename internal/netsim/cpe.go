package netsim

import (
	"math/bits"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// LocalStack is the transport/application stack of a periphery device.
// The services package provides an implementation with DNS, HTTP, and the
// other periphery services; netsim itself ships an echo-only stack.
type LocalStack interface {
	// HandleLocal processes a packet addressed to self and returns any
	// reply packets (already fully marshalled, source = self).
	HandleLocal(self ipv6.Addr, pkt []byte) [][]byte
}

// EchoStack answers ICMPv6 echo requests and nothing else: a periphery
// with no exposed services.
type EchoStack struct{}

var _ LocalStack = EchoStack{}

// HandleLocal implements LocalStack.
func (EchoStack) HandleLocal(self ipv6.Addr, pkt []byte) [][]byte {
	s, err := wire.ParsePacket(pkt)
	if err != nil || s.ICMP == nil || s.ICMP.Type != wire.ICMPEchoRequest {
		return nil
	}
	e, err := wire.ParseEcho(s.ICMP.Body)
	if err != nil {
		return nil
	}
	reply, err := wire.BuildEchoReply(self, s.IP.Src, 64, e.ID, e.Seq, e.Data)
	if err != nil {
		return nil
	}
	return [][]byte{reply}
}

// CPEBehavior captures how a CPE's routing module handles addresses it
// has no specific route for — the implementation property the paper's
// Section VI measures.
type CPEBehavior struct {
	// VulnWAN: the CPE installs only a host route for its own WAN
	// address; other (nonexistent) addresses within the WAN /64 match
	// the default route and bounce back to the ISP — a routing loop.
	VulnWAN bool
	// VulnLAN: the CPE lacks the RFC 7084 unreachable route for the
	// delegated-but-unassigned LAN prefixes; packets to a Not-used
	// Prefix match the default route and bounce back — a routing loop.
	VulnLAN bool
	// LoopCap, when positive, bounds how many times the CPE forwards
	// packets of one looping destination before dropping (the partial
	// mitigation observed on Xiaomi/OpenWrt-family devices, which
	// forward such packets only >10 times rather than (255-n)/2).
	LoopCap int
}

// CPE is a customer-premises-edge router: WAN interface toward the ISP,
// a delegated LAN prefix, one or more in-use subnets, and optionally a
// set of LAN host addresses that answer pings.
type CPE struct {
	name      string
	wan       *Iface
	wanPrefix ipv6.Prefix // the point-to-point /64 containing the WAN address
	delegated ipv6.Prefix // LAN prefix delegated by the ISP (may be zero-width: none)
	subnets   []ipv6.Prefix
	lanAddr   ipv6.Addr // CPE's own address inside the first subnet
	hosts     map[ipv6.Addr]bool
	behavior  CPEBehavior
	stack     LocalStack
	gate      errorGate
	hasLAN    bool
	sc        emitScratch

	loopCount map[ipv6.Addr]int

	// CountForwarded tallies packets the CPE sent back out its WAN
	// interface in a loop; used for amplification accounting.
	CountForwarded uint64
}

var _ Node = (*CPE)(nil)

// CPEConfig assembles a CPE.
type CPEConfig struct {
	Name      string
	WANAddr   ipv6.Addr   // address on the WAN /64
	WANPrefix ipv6.Prefix // the WAN point-to-point /64
	Delegated ipv6.Prefix // LAN delegated prefix; leave zero for none
	Subnets   []ipv6.Prefix
	LANAddr   ipv6.Addr // CPE address within Subnets[0]; zero for none
	Hosts     []ipv6.Addr
	Behavior  CPEBehavior
	Stack     LocalStack // nil means EchoStack
	Policy    ErrorPolicy
}

// NewCPE builds a CPE node; its WAN interface is returned by WAN().
func NewCPE(cfg CPEConfig) *CPE {
	c := &CPE{
		name:      cfg.Name,
		wanPrefix: cfg.WANPrefix,
		delegated: cfg.Delegated,
		subnets:   cfg.Subnets,
		lanAddr:   cfg.LANAddr,
		behavior:  cfg.Behavior,
		stack:     cfg.Stack,
		gate:      errorGate{policy: cfg.Policy},
		hasLAN:    cfg.Delegated.Bits() > 0,
	}
	if c.stack == nil {
		c.stack = EchoStack{}
	}
	if len(cfg.Hosts) > 0 {
		c.hosts = make(map[ipv6.Addr]bool, len(cfg.Hosts))
		for _, h := range cfg.Hosts {
			c.hosts[h] = true
		}
	}
	c.wan = NewIface(c, cfg.WANAddr, cfg.Name+":wan")
	return c
}

// Name implements Node.
func (c *CPE) Name() string { return c.name }

// WAN returns the WAN interface to connect to the ISP router.
func (c *CPE) WAN() *Iface { return c.wan }

// WANAddr returns the CPE's WAN interface address.
func (c *CPE) WANAddr() ipv6.Addr { return c.wan.addr }

// Behavior returns the CPE's routing behavior (for ground-truth checks).
func (c *CPE) Behavior() CPEBehavior { return c.behavior }

// Delegated returns the delegated LAN prefix (zero Prefix if none).
func (c *CPE) Delegated() ipv6.Prefix { return c.delegated }

// Subnets returns the in-use LAN subnets.
func (c *CPE) Subnets() []ipv6.Prefix { return c.subnets }

// Handle implements Node, realizing the routing table of the paper's
// Figure 4 — correct or flawed depending on Behavior.
func (c *CPE) Handle(in *Iface, pkt []byte) []Emission {
	dst, ok := wire.ForwardDst(pkt)
	if !ok {
		return nil
	}

	// Local delivery: WAN address, LAN interface address.
	if dst == c.wan.addr || (c.lanAddr != (ipv6.Addr{}) && dst == c.lanAddr) {
		return c.deliverLocal(in, dst, pkt)
	}
	// A LAN host the subscriber actually operates: answers pings.
	if c.hosts[dst] {
		return hostEcho(&c.sc, in, dst, pkt)
	}

	if !decrementHopLimit(pkt) {
		return c.emitError(in, pkt, wire.ICMPTimeExceeded, wire.TimeExceedHopLimit)
	}

	switch {
	case c.wanPrefix.Contains(dst):
		// Nonexistent address in the WAN point-to-point /64.
		if c.behavior.VulnWAN {
			return c.loopForward(in, dst, pkt)
		}
		// Correct: neighbor discovery fails; address unreachable.
		return c.emitError(in, pkt, wire.ICMPDestUnreach, wire.UnreachAddress)

	case c.inSubnet(dst):
		// In an operated subnet but no such host: NDP failure.
		return c.emitError(in, pkt, wire.ICMPDestUnreach, wire.UnreachAddress)

	case c.hasLAN && c.delegated.Contains(dst):
		// Delegated-but-unassigned space: the Not-used Prefix.
		if c.behavior.VulnLAN {
			return c.loopForward(in, dst, pkt)
		}
		// Correct per RFC 7084: a discard/unreachable route.
		return c.emitError(in, pkt, wire.ICMPDestUnreach, wire.UnreachNoRoute)

	default:
		// Default route: egress toward the ISP.
		c.CountForwarded++
		return c.sc.emit(c.wan, pkt)
	}
}

// CompileStep implements CompilableHop for the CPE's statically
// forwarding regions: the vulnerable loop behaviors (a flawed route
// sends the packet straight back out the WAN — the paper's routing
// loop) and the default route. Both are stateless single-decision
// forwards unless a LoopCap bounds the bounce with per-destination
// state, which stays interpreted.
func (c *CPE) CompileStep(in *Iface, dst ipv6.Addr) (CompiledStep, bool) {
	if dst == c.wan.addr || (c.lanAddr != (ipv6.Addr{}) && dst == c.lanAddr) || c.hosts[dst] {
		return CompiledStep{}, false
	}
	step := CompiledStep{Out: c.wan, Forwarded: &c.CountForwarded}
	loopOK := c.behavior.LoopCap == 0
	switch {
	case c.wanPrefix.Contains(dst):
		if !c.behavior.VulnWAN || !loopOK {
			return CompiledStep{}, false
		}
		if c.hasLAN && c.behavior.VulnLAN && c.delegated.Contains(dst) {
			// The WAN /64 sits inside the delegation and both flawed
			// routes bounce out the WAN identically: one region spans
			// the whole delegated prefix (minus operated subnets).
			step.Width = c.loopRegion(dst, &step.Holes, &step.NHole)
		} else {
			step.Width = prefixWidth(c.wanPrefix)
		}
	case c.inSubnet(dst):
		return CompiledStep{}, false // error terminal, not a forward
	case c.hasLAN && c.delegated.Contains(dst):
		if !c.behavior.VulnLAN || !loopOK {
			return CompiledStep{}, false
		}
		step.Width = c.loopRegion(dst, &step.Holes, &step.NHole)
	default:
		// Default route toward the ISP (e.g. a reply transiting the CPE
		// after an ISP-side hop-limit expiry): uniform up to the nearest
		// special prefix.
		step.Width = c.defaultRegion(dst, &step.Holes, &step.NHole)
	}
	if step.Width != 0 && !c.exclSpecials(step.Width, dst, &step.Excl, &step.NExcl) {
		step.Width = 0
	}
	if step.Width == 0 {
		step.NExcl, step.NHole = 0, 0
	}
	return step, true
}

// compileExpiry implements hopExpirer: any non-special destination
// whose hop limit dies here draws Time Exceeded sourced from the WAN
// address — how a looping probe ultimately exposes the flawed CPE.
// Expiry precedes all routing, so the decision is uniform over
// everything except the CPE's own addresses and operated hosts.
func (c *CPE) compileExpiry(in *Iface, dst ipv6.Addr) (compiledTerm, bool) {
	if dst == c.wan.addr || (c.lanAddr != (ipv6.Addr{}) && dst == c.lanAddr) || c.hosts[dst] {
		return compiledTerm{}, false
	}
	t := compiledTerm{
		typ: wire.ICMPTimeExceeded, code: wire.TimeExceedHopLimit,
		src: c.wan.addr, gate: &c.gate, width: 1,
	}
	if !c.exclSpecials(1, dst, &t.excl, &t.nExcl) {
		t.width = 0
		t.nExcl = 0
	}
	return t, true
}

// CompileTerminal implements terminalCompiler for the correct-behavior
// error regions of the paper's Figure 4 routing table: nonexistent WAN
// /64 addresses and operated-subnet addresses draw address-unreachable,
// the Not-used Prefix draws no-route. Vulnerable behaviors (VulnWAN,
// VulnLAN) loop with per-destination state and stay interpreted, as do
// local deliveries and the default route.
func (c *CPE) CompileTerminal(in *Iface, dst ipv6.Addr) (compiledTerm, bool) {
	if dst == c.wan.addr || (c.lanAddr != (ipv6.Addr{}) && dst == c.lanAddr) || c.hosts[dst] {
		return compiledTerm{}, false
	}
	t := compiledTerm{typ: wire.ICMPDestUnreach, src: c.wan.addr, gate: &c.gate}
	switch {
	case c.wanPrefix.Contains(dst):
		if c.behavior.VulnWAN {
			return compiledTerm{}, false
		}
		t.code = wire.UnreachAddress
		t.width = prefixWidth(c.wanPrefix)
	case c.inSubnet(dst):
		t.code = wire.UnreachAddress
		// The region is the containing subnet; the WAN prefix is holed
		// out if it reaches inside (its branch wins in Handle).
		for _, s := range c.subnets {
			if !s.Contains(dst) {
				continue
			}
			t.width = prefixWidth(s)
			if t.width != 0 && c.wanPrefix.Overlaps(s) {
				t.holes[0] = c.wanPrefix
				t.nHole = 1
			}
			break
		}
	case c.hasLAN && c.delegated.Contains(dst):
		if c.behavior.VulnLAN {
			return compiledTerm{}, false
		}
		t.code = wire.UnreachNoRoute
		// One region per delegation: the whole Not-used Prefix draws
		// the same error, with the operated subnets and the WAN /64
		// (different error code) carved out.
		t.width = c.loopRegion(dst, &t.holes, &t.nHole)
	default:
		return compiledTerm{}, false // default route: the CPE forwards, per-packet
	}
	if t.width != 0 && !c.exclSpecials(t.width, dst, &t.excl, &t.nExcl) {
		t.width = 0
	}
	if t.width == 0 {
		t.nExcl, t.nHole = 0, 0
	}
	return t, true
}

// loopRegion claims the whole delegated prefix as one region, holing
// out the operated subnets and — unless the flawed WAN route behaves
// identically — the WAN /64. Holing is conservative: a holed
// destination compiles its own narrower entry, so over-holing costs
// only reuse, never correctness. Returns 0 (exact) when the region is
// unexpressible or the holes overflow.
func (c *CPE) loopRegion(dst ipv6.Addr, holes *[fpHoleCap]ipv6.Prefix, nHole *uint8) uint8 {
	w := prefixWidth(c.delegated)
	if w == 0 {
		return 0
	}
	add := func(p ipv6.Prefix) bool {
		if p.Contains(dst) {
			// dst's own branch outranks the hole (Handle checks the
			// WAN prefix before subnets); holing it would shadow the
			// entry's own destination.
			return true
		}
		if int(*nHole) == fpHoleCap {
			return false
		}
		holes[*nHole] = p
		*nHole++
		return true
	}
	for _, s := range c.subnets {
		if !add(s) {
			return 0
		}
	}
	sameBehavior := c.behavior.VulnWAN && c.behavior.VulnLAN && c.behavior.LoopCap == 0
	if !sameBehavior && c.wanPrefix.Overlaps(c.delegated) && !add(c.wanPrefix) {
		return 0
	}
	return w
}

// defaultRegion claims the largest region around dst inside the CPE's
// default-route space: it stops at the first bit where dst diverges
// from each special prefix, and carves out special prefixes narrower
// than dst's /64.
func (c *CPE) defaultRegion(dst ipv6.Addr, holes *[fpHoleCap]ipv6.Prefix, nHole *uint8) uint8 {
	w := uint8(1)
	dh := dst.Uint128().Hi
	avoid := func(p ipv6.Prefix) bool {
		if p.Bits() == 0 {
			return true
		}
		cb := bits.LeadingZeros64(dh ^ p.Addr().Uint128().Hi)
		if cb >= 64 {
			// p lives inside dst's /64 (it cannot contain dst — dst is
			// in the default region): carve it out instead of
			// narrowing below /64.
			if int(*nHole) == fpHoleCap {
				return false
			}
			holes[*nHole] = p
			*nHole++
			return true
		}
		if uint8(cb+1) > w {
			w = uint8(cb + 1)
		}
		return true
	}
	if !avoid(c.wanPrefix) {
		return 0
	}
	if c.hasLAN && !avoid(c.delegated) {
		return 0
	}
	for _, s := range c.subnets {
		if !avoid(s) {
			return 0
		}
	}
	return w
}

// exclSpecials folds the CPE's own addresses and operated hosts that
// fall inside prefix(dst, width) into the exclusion list — lookups to
// them miss into the interpreter. ok=false on overflow.
func (c *CPE) exclSpecials(width uint8, dst ipv6.Addr, excl *[fpExclCap]ipv6.Addr, nExcl *uint8) bool {
	dh := dst.Uint128().Hi
	add := func(a ipv6.Addr) bool {
		if a == dst || (dh^a.Uint128().Hi)&fpMask(width) != 0 {
			return true // dst itself, or outside the region
		}
		if int(*nExcl) == fpExclCap {
			return false
		}
		excl[*nExcl] = a
		*nExcl++
		return true
	}
	if !add(c.wan.addr) {
		return false
	}
	if c.lanAddr != (ipv6.Addr{}) && !add(c.lanAddr) {
		return false
	}
	for h := range c.hosts {
		if !add(h) {
			return false
		}
	}
	return true
}

// loopForward sends the packet back out the WAN default route, applying
// any per-destination loop cap.
func (c *CPE) loopForward(in *Iface, dst ipv6.Addr, pkt []byte) []Emission {
	if limit := c.behavior.LoopCap; limit > 0 {
		if c.loopCount == nil {
			c.loopCount = make(map[ipv6.Addr]int)
		}
		if len(c.loopCount) > 4096 { // bound state like a real embedded table
			c.loopCount = make(map[ipv6.Addr]int)
		}
		c.loopCount[dst]++
		if c.loopCount[dst] > limit {
			return nil
		}
	}
	c.CountForwarded++
	return c.sc.emit(c.wan, pkt)
}

// inSubnet reports whether dst falls in an operated subnet.
func (c *CPE) inSubnet(dst ipv6.Addr) bool {
	for _, s := range c.subnets {
		if s.Contains(dst) {
			return true
		}
	}
	return false
}

// deliverLocal hands the packet to the device stack.
func (c *CPE) deliverLocal(in *Iface, self ipv6.Addr, pkt []byte) []Emission {
	return c.sc.emitAll(in, c.stack.HandleLocal(self, pkt))
}

func (c *CPE) emitError(in *Iface, invoking []byte, typ, code uint8) []Emission {
	if !c.gate.allow() {
		return nil
	}
	// RFC 4443 source selection: the error leaves the WAN interface, so
	// it carries the WAN address — this is what exposes the periphery.
	out := icmpError(in, c.wan.addr, invoking, typ, code)
	if out == nil {
		c.gate.generated--
		return nil
	}
	return c.sc.emit(in, out)
}

// hostEcho answers a ping to an existing LAN host on its behalf (the
// host is modelled inside the CPE rather than as a separate node).
func hostEcho(sc *emitScratch, in *Iface, self ipv6.Addr, pkt []byte) []Emission {
	var s wire.Summary
	if err := s.Parse(pkt); err != nil || s.ICMP == nil || s.ICMP.Type != wire.ICMPEchoRequest {
		return nil
	}
	e, err := wire.ParseEcho(s.ICMP.Body)
	if err != nil {
		return nil
	}
	reply, err := wire.BuildEchoReply(self, s.IP.Src, 64, e.ID, e.Seq, e.Data)
	if err != nil {
		return nil
	}
	return sc.emit(in, reply)
}

// UE is a user-equipment periphery (paper Figure 1b): a device holding a
// single /64 prefix on its radio interface. Nonexistent addresses inside
// the prefix draw an address-unreachable error from the UE itself.
type UE struct {
	name   string
	ifc    *Iface
	prefix ipv6.Prefix
	stack  LocalStack
	gate   errorGate
	sc     emitScratch
}

var _ Node = (*UE)(nil)

// NewUE builds a UE holding prefix, answering at addr.
func NewUE(name string, addr ipv6.Addr, prefix ipv6.Prefix, stack LocalStack, policy ErrorPolicy) *UE {
	u := &UE{name: name, prefix: prefix, stack: stack, gate: errorGate{policy: policy}}
	if u.stack == nil {
		u.stack = EchoStack{}
	}
	u.ifc = NewIface(u, addr, name+":radio")
	return u
}

// Name implements Node.
func (u *UE) Name() string { return u.name }

// Iface returns the radio interface to connect to the base station.
func (u *UE) Iface() *Iface { return u.ifc }

// Addr returns the UE's own address.
func (u *UE) Addr() ipv6.Addr { return u.ifc.addr }

// CompileTerminal implements terminalCompiler: a nonexistent address
// inside the UE's prefix draws address-unreachable from the UE itself
// (paper Figure 1b). The UE's own address is the only special case.
func (u *UE) CompileTerminal(in *Iface, dst ipv6.Addr) (compiledTerm, bool) {
	if dst == u.ifc.addr || !u.prefix.Contains(dst) {
		return compiledTerm{}, false
	}
	t := compiledTerm{
		typ: wire.ICMPDestUnreach, code: wire.UnreachAddress,
		src: u.ifc.addr, gate: &u.gate,
		width: prefixWidth(u.prefix),
	}
	if t.width != 0 {
		t.excl[0] = u.ifc.addr
		t.nExcl = 1
	}
	return t, true
}

// Handle implements Node.
func (u *UE) Handle(in *Iface, pkt []byte) []Emission {
	dst, ok := wire.ForwardDst(pkt)
	if !ok {
		return nil
	}
	if dst == u.ifc.addr {
		return u.sc.emitAll(in, u.stack.HandleLocal(u.ifc.addr, pkt))
	}
	if !decrementHopLimit(pkt) {
		if !u.gate.allow() {
			return nil
		}
		if e := icmpError(in, u.ifc.addr, pkt, wire.ICMPTimeExceeded, wire.TimeExceedHopLimit); e != nil {
			return u.sc.emit(in, e)
		}
		u.gate.generated--
		return nil
	}
	if u.prefix.Contains(dst) {
		// Nonexistent address within the UE prefix.
		if !u.gate.allow() {
			return nil
		}
		if e := icmpError(in, u.ifc.addr, pkt, wire.ICMPDestUnreach, wire.UnreachAddress); e != nil {
			return u.sc.emit(in, e)
		}
		u.gate.generated--
		return nil
	}
	// A UE is not a transit router: anything else is dropped.
	return nil
}
