package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// FuzzSettle interprets the fuzz input as a little program over a random
// graph of constant/proportional taps and reserves — create, rewire,
// mutate rates, transfer, release, debit into debt, decay — executed in
// lockstep on a per-batch oracle and a closed-form-settled subject.
// Carry-free feeds (whole µJ per batch) into a proportionally taxed
// reserve form the backward-tap shape settleChunk settles on locals;
// debt-allowed reserves let negative levels reach proportional taps; and
// Graph.Decay between advances perturbs the levels the proportional
// recurrences read, and advances with bites folded into the settled
// chunks (SettleFlows with Bites) race per-batch Flow + Decay. After every
// advance it asserts:
//
//   - byte-identical state (levels, carries, stats) between the two;
//   - exact energy conservation on both
//     (battery + Σ reserves + consumed == capacity);
//   - no reserve that does not allow debt overshoots past zero;
//   - horizon monotonicity: settling j batches shrinks the reported
//     depletion horizon by at most j.
func FuzzSettle(f *testing.F) {
	f.Add([]byte{0, 10, 0, 1, 0x20, 3, 5, 50, 2, 1, 0x10, 5, 20})
	f.Add([]byte{0, 255, 255, 1, 0xFF, 200, 5, 10, 0, 1, 1, 2, 0x01, 100, 5, 200, 5, 255})
	f.Add([]byte{6, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	// Backward-tap shape: funded reserve, carry-free feed into it, a tax
	// back to the battery, advances around a decay step.
	f.Add([]byte{0, 0x10, 0x27, 7, 0x10, 0xC4, 0x09, 2, 0x01, 0xE8, 0x03, 6, 99, 10, 6, 63, 10, 6, 63})
	// The same shape on a reserve driven into debt first.
	f.Add([]byte{8, 9, 0x01, 0x88, 0x13, 7, 0x10, 0xD0, 0x07, 2, 0x01, 0x20, 0xA1, 6, 63, 10, 6, 63, 6, 63, 6, 63})
	// Bitten advances: the backward-tap shape, a reserve fed by a
	// carry-odd constant tap, then a tap draining a decayable reserve.
	f.Add([]byte{0, 0x10, 0x27, 7, 0x10, 0xC4, 0x09, 2, 0x01, 0xE8, 0x03, 11, 99, 0x1A, 11, 63, 0x02,
		0, 0x20, 0x4E, 1, 0x20, 0x33, 0x01, 11, 63, 0x11, 1, 0x03, 0x10, 0x00, 11, 40, 0x09})

	f.Fuzz(func(t *testing.T, data []byte) {
		const battery = units.Joule
		const dt = settleDT
		build := func() (*Graph, *kobj.Container) { return newSettleGraph(battery) }
		og, oroot := build()
		sg, sroot := build()
		og.halfLife, sg.halfLife = DefaultHalfLife, DefaultHalfLife
		obill := &baselineBiller{g: og, power: units.Milliwatts(699)}
		sbill := &baselineBiller{g: sg, power: units.Milliwatts(699)}

		var ores, sres []*Reserve
		var otaps, staps []*Tap
		ores = append(ores, og.Battery())
		sres = append(sres, sg.Battery())

		next := func(i *int) (byte, bool) {
			if *i >= len(data) {
				return 0, false
			}
			b := data[*i]
			*i++
			return b, true
		}
		next16 := func(i *int) (uint16, bool) {
			if *i+1 >= len(data) {
				return 0, false
			}
			v := binary.LittleEndian.Uint16(data[*i:])
			*i += 2
			return v, true
		}

		check := func(tag string) {
			t.Helper()
			os, ss := graphState(og), graphState(sg)
			if os != ss {
				t.Fatalf("%s: settled state diverged from oracle:\n--- oracle ---\n%s--- settled ---\n%s", tag, os, ss)
			}
			for _, g := range []*Graph{og, sg} {
				if g.ConservationError() != 0 {
					t.Fatalf("%s: conservation violated by %v", tag, g.ConservationError())
				}
				for _, r := range g.reserves {
					if r.level < 0 && !r.allowDebt {
						t.Fatalf("%s: reserve %s overshot to %d µJ", tag, r.name, r.level)
					}
				}
			}
		}

		// addTap creates twin taps between the reserves a selects (source
		// in the low nibble, sink in the high) and applies set to both.
		addTap := func(a byte, name string, set func(*Tap)) {
			si := int(a) % len(ores)
			di := int(a>>4) % len(ores)
			if si == di || ores[si].dead || ores[di].dead || sres[si].dead || sres[di].dead {
				return
			}
			ot, err1 := og.NewTap(oroot, name, label.Priv{}, ores[si], ores[di], label.Public())
			st, err2 := sg.NewTap(sroot, name, label.Priv{}, sres[si], sres[di], label.Public())
			if (err1 == nil) != (err2 == nil) {
				t.Fatal("twin tap creation diverged")
			}
			if err1 != nil {
				return
			}
			set(ot)
			set(st)
			otaps = append(otaps, ot)
			staps = append(staps, st)
		}

		count := 0
		for i := 0; i < len(data); {
			op, ok := next(&i)
			if !ok {
				break
			}
			count++
			if count > 200 {
				break // bound runtime
			}
			switch op % 12 {
			case 0: // new reserve, funded from the battery
				amt, ok := next16(&i)
				if !ok {
					return
				}
				fund := units.Energy(amt) * 20 // up to ≈1.3 mJ... scaled below battery
				or := og.NewReserve(oroot, "r", label.Public(), ReserveOpts{})
				sr := sg.NewReserve(sroot, "r", label.Public(), ReserveOpts{})
				_ = og.Transfer(label.Priv{}, og.Battery(), or, fund)
				_ = sg.Transfer(label.Priv{}, sg.Battery(), sr, fund)
				ores = append(ores, or)
				sres = append(sres, sr)
			case 1: // new constant tap
				a, ok1 := next(&i)
				rate, ok2 := next16(&i)
				if !ok1 || !ok2 {
					return
				}
				addTap(a, "t", func(tp *Tap) { _ = tp.SetRate(label.Priv{}, units.Power(rate)*7) })
			case 2: // new proportional tap
				a, ok1 := next(&i)
				frac, ok2 := next16(&i)
				if !ok1 || !ok2 {
					return
				}
				ppm := PPM(frac) % 1_000_001
				addTap(a, "f", func(tp *Tap) { _ = tp.SetFrac(label.Priv{}, ppm) })
			case 3: // mutate a tap's rate or fraction
				a, ok1 := next(&i)
				v, ok2 := next16(&i)
				if !ok1 || !ok2 || len(otaps) == 0 {
					continue
				}
				ti := int(a) % len(otaps)
				if a&0x80 != 0 {
					ppm := PPM(v) % 1_000_001
					_ = otaps[ti].SetFrac(label.Priv{}, ppm)
					_ = staps[ti].SetFrac(label.Priv{}, ppm)
				} else {
					_ = otaps[ti].SetRate(label.Priv{}, units.Power(v)*3)
					_ = staps[ti].SetRate(label.Priv{}, units.Power(v)*3)
				}
			case 4: // release a tap
				a, ok1 := next(&i)
				if !ok1 || len(otaps) == 0 {
					continue
				}
				ti := int(a) % len(otaps)
				_ = og.Table().Delete(otaps[ti].ObjectID())
				_ = sg.Table().Delete(staps[ti].ObjectID())
			case 5: // transfer between reserves
				a, ok1 := next(&i)
				amt, ok2 := next16(&i)
				if !ok1 || !ok2 {
					return
				}
				si := int(a) % len(ores)
				di := int(a>>4) % len(ores)
				if si == di || ores[si].dead || ores[di].dead || sres[si].dead || sres[di].dead {
					continue
				}
				_, _ = og.TransferUpTo(label.Priv{}, ores[si], ores[di], units.Energy(amt))
				_, _ = sg.TransferUpTo(label.Priv{}, sres[si], sres[di], units.Energy(amt))
			case 6: // advance n batches, checking horizon monotonicity
				a, ok1 := next(&i)
				if !ok1 {
					return
				}
				n := int64(a%64) + 1
				extra := units.Milliwatts(699)
				h0 := sg.HorizonBatches(dt, extra)
				for j := int64(0); j < n; j++ {
					og.Flow(dt)
					obill.bill(1)
				}
				sg.SettleFlows(dt, n, extra, sbill.bill, Bites{})
				h1 := sg.HorizonBatches(dt, extra)
				// Monotone up to one batch of slack for the interleaved
				// drain's sub-µJ carry (see HorizonBatches).
				if h0 > 0 && h1 < h0-n-1 {
					t.Fatalf("horizon not monotone: settled %d batches, horizon fell %d → %d", n, h0, h1)
				}
				check("after advance")
			case 7: // new carry-free constant tap: whole µJ per batch
				a, ok1 := next(&i)
				rate, ok2 := next16(&i)
				if !ok1 || !ok2 {
					return
				}
				p := units.Power(rate%2048) * 100 // multiples of 100 µW, up to ≈205 mW
				addTap(a, "c", func(tp *Tap) { _ = tp.SetRate(label.Priv{}, p) })
			case 8: // new debt-allowed reserve, empty
				or := og.NewReserve(oroot, "d", label.Public(), ReserveOpts{AllowDebt: true})
				sr := sg.NewReserve(sroot, "d", label.Public(), ReserveOpts{AllowDebt: true})
				ores = append(ores, or)
				sres = append(sres, sr)
			case 9: // DebitSelf: drives debt-allowed reserves negative
				a, ok1 := next(&i)
				amt, ok2 := next16(&i)
				if !ok1 || !ok2 {
					return
				}
				ri := int(a) % len(ores)
				if ores[ri].dead || sres[ri].dead {
					continue
				}
				e := units.Energy(amt) * 20
				oerr := ores[ri].DebitSelf(label.Priv{}, e)
				serr := sres[ri].DebitSelf(label.Priv{}, e)
				if (oerr == nil) != (serr == nil) {
					t.Fatal("twin DebitSelf diverged")
				}
			case 10: // one global half-life step between advances
				og.Decay(units.Second)
				sg.Decay(units.Second)
			case 11: // advance n batches with bites folded into the chunks
				a, ok1 := next(&i)
				c, ok2 := next(&i)
				if !ok1 || !ok2 {
					return
				}
				n := int64(a%64) + 1
				b := Bites{First: int64(c%8) + 1, Every: int64(c>>3%4) + 1, DT: units.Minute}
				if b.First <= n {
					b.Count = (n-b.First)/b.Every + 1
				}
				extra := units.Milliwatts(699)
				for j := int64(1); j <= n; j++ {
					og.Flow(dt)
					obill.bill(1)
					if b.Count > 0 && j >= b.First && (j-b.First)%b.Every == 0 {
						og.Decay(b.DT)
					}
				}
				sg.SettleFlows(dt, n, extra, sbill.bill, b)
				check("after bitten advance")
			}
		}
		// Final state must agree even if the program ended mid-op.
		check("final")
	})
}
