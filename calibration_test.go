package veritas_test

import (
	"context"
	"flag"
	"math"
	"strconv"
	"testing"

	"veritas"
	"veritas/internal/cli"
)

// TestCalibrationPinned pins the calibration of the Veritas range as it
// stands: for each scenario, the share of sessions whose true SSIM,
// rebuffering and bitrate lie inside the range of K = 19 samples, from
// the campaign `fleet -scenarios S -sessions 20 -chunks 0 -samples 19
// -abrs bba -buffers 5` runs (MPC deployed at 5 s, a BBA 5 s what-if).
// A calibrated range would cover (K−3)/(K+1) = 80 % of sessions; lte
// and wifi are far below it. The pin is exact so that a change to the
// prior, the sampler's tail or the emission moves these numbers
// visibly, never silently.
func TestCalibrationPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const k = 19
	want := map[string][3]int{ // SSIM, rebuffering, bitrate coverage in %
		"fcc":    {100, 85, 90},
		"lte":    {35, 0, 0},
		"wifi":   {50, 25, 30},
		"square": {55, 30, 30},
	}
	for _, sc := range []string{"fcc", "lte", "wifi", "square"} {
		var o cli.CampaignFlags
		fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
		o.Register(fs, "", "", "")
		if err := fs.Parse([]string{"-scenarios", sc, "-sessions", "20", "-chunks", "0", "-samples", strconv.Itoa(k), "-abrs", "bba", "-buffers", "5"}); err != nil {
			t.Fatal(err)
		}
		opts, err := o.Options()
		if err != nil {
			t.Fatal(err)
		}
		c, err := veritas.NewCampaign(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Report()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Arms) != 1 || len(rep.Arms[0].Metrics) != 3 {
			t.Fatalf("%s: report has %d arms, want one arm of three metrics", sc, len(rep.Arms))
		}
		for i, ma := range rep.Arms[0].Metrics {
			if ma.Coverage == nil {
				t.Fatalf("%s %s: no coverage", sc, ma.Metric)
			}
			if got := int(math.Round(*ma.Coverage * 100)); got != want[sc][i] {
				t.Errorf("%s %s: coverage %d %%, pinned %d %% (nominal level (K−3)/(K+1) = %.0f %% at K = %d)",
					sc, ma.Metric, got, want[sc][i], 100*float64(k-3)/float64(k+1), k)
			}
		}
		c.Close()
	}
}
