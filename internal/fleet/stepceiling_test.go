package fleet

import (
	"testing"

	"repro/internal/units"
)

// TestBusyBucketStepCeiling is the busy-path regression gate: the mean
// executed-instant count for the chatty and commuter day-in-the-life
// buckets over 24 h must stay under 2.5k instants per device-day. Before
// closed-form netd sweep settlement and the throttled-quantum scheduler
// skip these buckets sat at ~8.3k and ~12.5k; those brought them to
// ~2.7k and ~5.9k, and folding the 1 s decay bites into settled chunks
// (with the battery watch deferring across constant taps) to 1,035 and
// 1,078. A regression that reintroduces per-period task firings on the
// busy path (decay every second, sweeps at 100 ms, throttled scheduler
// quanta at every tap batch) trips this long before it costs real time.
func TestBusyBucketStepCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const ceiling = 2_500
	rep, err := Run(Config{
		Devices:  256,
		Seed:     7,
		Duration: 24 * units.Hour,
		Workers:  4,
		Scenario: DayInTheLife(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, b := range rep.Buckets {
		switch b.Name {
		case "chatty-day", "commuter-day":
			checked++
			if b.MeanSteps >= ceiling {
				t.Errorf("bucket %q: mean %d executed instants per device-day, ceiling %d",
					b.Name, b.MeanSteps, ceiling)
			}
		}
	}
	if checked != 2 {
		t.Fatalf("expected chatty-day and commuter-day buckets, checked %d of %d", checked, len(rep.Buckets))
	}
}
