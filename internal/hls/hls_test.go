package hls

import (
	"strings"
	"testing"
	"testing/quick"

	"autophase/internal/interp"
	"autophase/internal/ir"
)

// chainBlock builds main with one block of n dependent adds.
func chainBlock(n int) *ir.Module {
	m := ir.NewModule("chain")
	f := m.NewFunc("main", ir.I32, ir.I32)
	b := ir.NewBuilder()
	b.SetInsert(f.NewBlock("entry"))
	var v ir.Value = f.Params[0]
	for i := 0; i < n; i++ {
		v = b.Add(v, ir.ConstInt(ir.I32, 1))
	}
	b.Ret(v)
	return m
}

func TestChainingPacksOps(t *testing.T) {
	// At 200 MHz the budget is 5 ns and an add is 2.4 ns, so two adds chain
	// into one state; each extra pair costs one more state.
	cases := []struct{ n, states int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {8, 4},
	}
	for _, c := range cases {
		m := chainBlock(c.n)
		ms := Schedule(m, DefaultConfig)
		got := ms.StatesOf(m.Func("main").Entry())
		if got != c.states {
			t.Errorf("%d chained adds: %d states, want %d", c.n, got, c.states)
		}
	}
}

func TestLowerFrequencyPacksMore(t *testing.T) {
	m := chainBlock(8)
	fast := Schedule(m, Config{FrequencyMHz: 200, MemPorts: 2, Dividers: 1})
	slow := Schedule(m, Config{FrequencyMHz: 50, MemPorts: 2, Dividers: 1})
	fs := fast.StatesOf(m.Func("main").Entry())
	ss := slow.StatesOf(m.Func("main").Entry())
	if ss >= fs {
		t.Fatalf("lower frequency should pack more logic per state: 200MHz=%d 50MHz=%d", fs, ss)
	}
}

func TestMemoryPortContention(t *testing.T) {
	// Four independent loads: with 2 ports they issue over 2 cycles (plus
	// latency); with 1 port over 4.
	build := func() *ir.Module {
		m := ir.NewModule("mem")
		f := m.NewFunc("main", ir.I32)
		b := ir.NewBuilder()
		b.SetInsert(f.NewBlock("entry"))
		arr := b.Alloca(ir.ArrayOf(ir.I32, 8))
		var acc ir.Value = ir.ConstInt(ir.I32, 0)
		for i := int64(0); i < 4; i++ {
			acc = b.Add(acc, b.Load(b.GEP(arr, ir.ConstInt(ir.I32, i))))
		}
		b.Ret(acc)
		return m
	}
	m := build()
	two := Schedule(m, Config{FrequencyMHz: 200, MemPorts: 2, Dividers: 1})
	one := Schedule(m, Config{FrequencyMHz: 200, MemPorts: 1, Dividers: 1})
	s2 := two.StatesOf(m.Func("main").Entry())
	s1 := one.StatesOf(m.Func("main").Entry())
	if s1 <= s2 {
		t.Fatalf("fewer ports must not schedule faster: 1port=%d 2port=%d", s1, s2)
	}
}

func TestDividerSerialization(t *testing.T) {
	m := ir.NewModule("div")
	f := m.NewFunc("main", ir.I32, ir.I32)
	b := ir.NewBuilder()
	b.SetInsert(f.NewBlock("entry"))
	d1 := b.SDiv(f.Params[0], ir.ConstInt(ir.I32, 3))
	d2 := b.SDiv(f.Params[0], ir.ConstInt(ir.I32, 5))
	b.Ret(b.Add(d1, d2))
	ms := Schedule(m, DefaultConfig)
	// Two divisions on one divider: second starts a cycle later; 8-cycle
	// latency each -> at least 9 states before the add.
	if got := ms.StatesOf(f.Entry()); got < 9 {
		t.Fatalf("divider contention ignored: %d states", got)
	}
}

func TestCyclesEqualStatesTimesCounts(t *testing.T) {
	// A straight-line program: dynamic cycles == static states (+call
	// overhead for main itself).
	m := chainBlock(6)
	// Give the param a value: main(arg) is invoked with 0 by the runtime.
	rep, _, err := interpProfile(m, DefaultConfig, interp.DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	ms := Schedule(m, DefaultConfig)
	want := int64(ms.StatesOf(m.Func("main").Entry())) + 1 // + return handshake
	if rep.Cycles != want {
		t.Fatalf("cycles=%d want %d", rep.Cycles, want)
	}
}

func TestProfileMonotoneInTrips(t *testing.T) {
	f := func(raw uint8) bool {
		trips := int64(raw%20) + 1
		build := func(n int64) *ir.Module {
			m := ir.NewModule("loop")
			fe := m.NewFunc("main", ir.I32)
			b := ir.NewBuilder()
			entry := fe.NewBlock("entry")
			header := fe.NewBlock("header")
			body := fe.NewBlock("body")
			exit := fe.NewBlock("exit")
			b.SetInsert(entry)
			b.Br(header)
			b.SetInsert(header)
			iv := b.Phi(ir.I32)
			b.CondBr(b.ICmp(ir.CmpSLT, iv, ir.ConstInt(ir.I32, n)), body, exit)
			b.SetInsert(body)
			next := b.Add(iv, ir.ConstInt(ir.I32, 1))
			b.Br(header)
			iv.SetPhiIncoming(entry, ir.ConstInt(ir.I32, 0))
			iv.SetPhiIncoming(body, next)
			b.SetInsert(exit)
			b.Ret(iv)
			return m
		}
		a, _, err1 := interpProfile(build(trips), DefaultConfig, interp.DefaultLimits)
		bb, _, err2 := interpProfile(build(trips+1), DefaultConfig, interp.DefaultLimits)
		return err1 == nil && err2 == nil && bb.Cycles > a.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAreaPositiveAndMonotone(t *testing.T) {
	small := Schedule(chainBlock(2), DefaultConfig)
	big := Schedule(chainBlock(20), DefaultConfig)
	if small.Area() <= 0 || big.Area() <= small.Area() {
		t.Fatalf("area model broken: small=%d big=%d", small.Area(), big.Area())
	}
}

func TestEmitRTL(t *testing.T) {
	m := chainBlock(4)
	ms := Schedule(m, DefaultConfig)
	rtl := ms.EmitRTL(m)
	for _, want := range []string{"module main", "FSM states", "endmodule"} {
		if !strings.Contains(rtl, want) {
			t.Fatalf("RTL missing %q:\n%s", want, rtl)
		}
	}
}

func TestBindingReport(t *testing.T) {
	m := chainBlock(8) // 8 dependent adds over 4 states
	ms := Schedule(m, DefaultConfig)
	b := ms.Bind(m)
	if b.Spatial[UnitAdder] != 8 {
		t.Fatalf("spatial adders = %d, want 8", b.Spatial[UnitAdder])
	}
	// 8 adds over 4 states share down to 2 adders.
	if b.Shared[UnitAdder] != 2 {
		t.Fatalf("shared adders = %d, want 2", b.Shared[UnitAdder])
	}
	if b.Registers < 8 {
		t.Fatalf("registers = %d", b.Registers)
	}
	if rep := b.Report(); !strings.Contains(rep, "adder") {
		t.Fatalf("report missing adder row: %s", rep)
	}
}

func TestBindingSharingNeverExceedsSpatial(t *testing.T) {
	// A mixed block: loads, multiplies, compares.
	m := ir.NewModule("mix")
	f := m.NewFunc("main", ir.I32)
	b := ir.NewBuilder()
	b.SetInsert(f.NewBlock("entry"))
	arr := b.Alloca(ir.ArrayOf(ir.I32, 8))
	var acc ir.Value = ir.ConstInt(ir.I32, 0)
	for i := int64(0); i < 4; i++ {
		v := b.Load(b.GEP(arr, ir.ConstInt(ir.I32, i)))
		acc = b.Add(acc, b.Mul(v, v))
	}
	cmp := b.ICmp(ir.CmpSGT, acc, ir.ConstInt(ir.I32, 10))
	sel := b.Select(cmp, acc, ir.ConstInt(ir.I32, 0))
	b.Ret(sel)

	ms := Schedule(m, DefaultConfig)
	bind := ms.Bind(m)
	for u, shared := range bind.Shared {
		if shared > bind.Spatial[u] {
			t.Fatalf("%s shared %d > spatial %d", u, shared, bind.Spatial[u])
		}
		if shared <= 0 {
			t.Fatalf("%s shared %d", u, shared)
		}
	}
	if bind.Spatial[UnitMultiplier] != 4 || bind.Spatial[UnitMemPort] != 4 {
		t.Fatalf("spatial counts wrong: %+v", bind.Spatial)
	}
}

// TestReportRecordRoundTrip: every engine's report survives the profile
// record, byte 32 is the static flag derived from the engine, and a record
// whose flag disagrees with its engine decodes as corrupt.
func TestReportRecordRoundTrip(t *testing.T) {
	for _, e := range []Engine{EngineStatic, EngineVM, EngineInterp} {
		rep := &Report{Cycles: 1234, AreaLUT: 56, Steps: 78, Exit: -9, Engine: e}
		buf := encodeReport(rep)
		if want := e == EngineStatic; (buf[32] == 1) != want {
			t.Fatalf("%v: static byte %d", e, buf[32])
		}
		got, ok := decodeReport(buf)
		if !ok || *got != *rep {
			t.Fatalf("%v: round trip %+v, %v", e, got, ok)
		}
		buf[32] ^= 1
		if _, ok := decodeReport(buf); ok {
			t.Fatalf("%v: static byte %d disagreeing with the engine decoded", e, buf[32])
		}
	}
}
