package fleet

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/label"
	"repro/internal/power"
	"repro/internal/units"
)

// TestProvisionerRejectsFleetBatteryOverride pins the precedence fix: a
// scenario that provisions per-device batteries combined with a
// fleet-level override is a contradiction the run must refuse loudly —
// before the fix, the override silently flattened the heterogeneous
// population.
func TestProvisionerRejectsFleetBatteryOverride(t *testing.T) {
	for _, sc := range []Scenario{WeekInTheLife(), MonthInTheLife(), AdversarialCohorts()} {
		_, err := Run(Config{
			Devices:         4,
			Seed:            7,
			Duration:        time10s(),
			Workers:         1,
			Scenario:        sc,
			BatteryCapacity: 90 * units.Kilojoule,
		})
		if err == nil || !strings.Contains(err.Error(), "contradicts") {
			t.Fatalf("%s + fleet battery override: err = %v, want loud contradiction", sc.Name(), err)
		}
	}
}

func time10s() units.Time { return 10 * units.Second }

// provisionProbe is a minimal Provisioner that asks for laptop hardware
// and the strict anti-hoarding rule, then verifies from inside Build
// that both actually reached the kernel.
type provisionProbe struct {
	gotProfile string
	gotBattery units.Energy
	hoardErr   error
}

func (p *provisionProbe) Name() string { return "provision-probe" }

func (p *provisionProbe) Provision(_ int, _ int64) DeviceProvision {
	return DeviceProvision{Profile: power.LaptopT60p(), StrictHoarding: true}
}

func (p *provisionProbe) Build(d *Device) error {
	k := d.Kernel
	p.gotProfile = k.Profile.Name
	p.gotBattery = k.Graph.Capacity()
	// Behavioral check that StrictHoarding reached core.Config: a
	// reserve with an unremovable backward tap must refuse a transfer
	// into a fresh reserve that lacks one.
	taxed := k.CreateReserve(k.Root, "taxed", label.Public())
	fresh := k.CreateReserve(k.Root, "fresh", label.Public())
	tap, err := k.CreateTap(k.Root, "tax", k.KernelPriv(), taxed, k.Battery(), k.Battery().Label())
	if err != nil {
		return err
	}
	if err := tap.SetFrac(k.KernelPriv(), 1000); err != nil {
		return err
	}
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), taxed, units.Joule); err != nil {
		return err
	}
	p.hoardErr = k.Graph.Transfer(label.Priv{}, taxed, fresh, units.Joule)
	return Compose{Label: "probe"}.Build(d)
}

func TestProvisionAppliesProfileAndPolicy(t *testing.T) {
	probe := &provisionProbe{}
	if _, err := Run(Config{Devices: 1, Seed: 3, Duration: time10s(), Workers: 1, Scenario: probe}); err != nil {
		t.Fatal(err)
	}
	want := power.LaptopT60p()
	if probe.gotProfile != want.Name {
		t.Fatalf("provisioned profile %q did not reach the kernel (got %q)", want.Name, probe.gotProfile)
	}
	if probe.gotBattery != want.BatteryCapacity {
		t.Fatalf("provisioned battery = %v, want the T60p's %v", probe.gotBattery, want.BatteryCapacity)
	}
	if !errors.Is(probe.hoardErr, core.ErrHoarding) {
		t.Fatalf("evasive transfer err = %v, want ErrHoarding — StrictHoarding did not reach core.Config", probe.hoardErr)
	}
}

// monthCfg is a short month slice: three simulated days cover nightly
// charge windows (including the midnight-spanning one), metered evening
// browsing, and both hardware classes (seed 11 draws three T60p laptops
// among the 16 devices).
func monthCfg(workers int) Config {
	return Config{
		Devices:  16,
		Seed:     11,
		Duration: 3 * 24 * units.Hour,
		Workers:  workers,
		Scenario: MonthInTheLife(),
	}
}

func runCanonical(t *testing.T, cfg Config) []byte {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return canonical(t, rep)
}

// TestMonthEquivalenceAcrossChargerModes is the recharge-cycle
// equivalence gate: the month scenario's canonical report must be
// byte-identical whether charger credits are settled in closed form or
// executed per quantum (the per-batch mode), across worker counts, and
// when every device is snapshotted and restored at 24 h epochs
// mid-month (the charger's checkpoint path) — the mode may only change
// diagnostics.
func TestMonthEquivalenceAcrossChargerModes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day fleet run")
	}
	ref := runCanonical(t, monthCfg(1))

	perBatch := monthCfg(1)
	perBatch.Mode = kernel.PerBatch
	if got := runCanonical(t, perBatch); !bytes.Equal(got, ref) {
		t.Error("per-batch mode changed the canonical report")
	}
	if got := runCanonical(t, monthCfg(4)); !bytes.Equal(got, ref) {
		t.Error("worker count changed the canonical report")
	}
	checkpointed := monthCfg(2)
	checkpointed.CheckpointDir = t.TempDir()
	checkpointed.CheckpointEvery = 24 * units.Hour
	if got := runCanonical(t, checkpointed); !bytes.Equal(got, ref) {
		t.Error("24 h checkpoint epochs changed the canonical report")
	}
}

// TestMonthRechargeObservable asserts the month population actually
// exercises the new machinery: charger credits land (non-monotone
// batteries), both hardware classes appear, and the nightly charge
// habit keeps the fleet overwhelmingly alive — the occasional death is
// expected (the forgetful-night draw can strand a small battery), mass
// death would mean the chargers never engaged.
func TestMonthRechargeObservable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day fleet run")
	}
	rep, err := Run(monthCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRecharged == 0 {
		t.Fatal("no charger energy credited across three days of nightly charging")
	}
	var sawLaptop, sawPhone bool
	for _, b := range rep.Buckets {
		if b.Name == "month-laptop" {
			sawLaptop = b.Devices > 0
		} else if b.Devices > 0 {
			sawPhone = true
		}
	}
	if !sawLaptop || !sawPhone {
		t.Fatalf("population not mixed: laptop=%v phone=%v", sawLaptop, sawPhone)
	}
	if rep.Dead > rep.Devices/4 {
		t.Fatalf("%d of %d devices died despite nightly charging", rep.Dead, rep.Devices)
	}
}

// TestAdversarialContainment is the §5.2.2 gate in miniature: with the
// fundamental rule on, the strict cohort's median lifetime recovers to
// within a few percent of the no-hoarder baseline, while the lax cohort
// (same adversary, rule off) dies measurably early and keeps the
// energy.
func TestAdversarialContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("150-device day run")
	}
	rep, err := Run(Config{
		Devices:  150,
		Seed:     11,
		Duration: 24 * units.Hour,
		Workers:  4,
		Scenario: AdversarialCohorts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Bucket{}
	for _, b := range rep.Buckets {
		byName[b.Name] = b
	}
	victim, lax, strict := byName["adv-victim"], byName["adv-lax"], byName["adv-strict"]
	if victim.Devices == 0 || lax.Devices == 0 || strict.Devices == 0 {
		t.Fatalf("missing cohorts: victim=%d lax=%d strict=%d devices", victim.Devices, lax.Devices, strict.Devices)
	}
	// Uncontained hoarding costs real lifetime…
	if lax.LifeP50 >= victim.LifeP50*95/100 {
		t.Errorf("lax cohort p50 %v not measurably below victim %v — adversary toothless", lax.LifeP50, victim.LifeP50)
	}
	// …the strict rule claws it back…
	if strict.LifeP50 < victim.LifeP50*97/100 {
		t.Errorf("strict cohort p50 %v below 97%% of victim %v — containment failed", strict.LifeP50, victim.LifeP50)
	}
	// …because the tax reclaims what the hoarder can no longer hide.
	if strict.Reclaimed <= 2*lax.Reclaimed {
		t.Errorf("strict reclaimed %v not well above lax %v", strict.Reclaimed, lax.Reclaimed)
	}
	if victim.Reclaimed != 0 {
		t.Errorf("victim cohort reclaimed %v with no hoarder installed", victim.Reclaimed)
	}
}
