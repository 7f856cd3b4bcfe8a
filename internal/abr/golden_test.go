package abr_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/trace"
	"veritas/internal/video"
)

// goldenMPCSessions pins every decision of RobustMPC on full-clip
// sessions: the SHA-256 of the JSON-encoded SessionLog of one MPC
// session per campaign scenario × 3 seeds, computed with the exhaustive
// planner at the commit before the branch-and-bound planner landed. A
// planner change that flips a single decision changes a chunk size and
// everything downstream of it, so it fails here. Do not regenerate
// these to make a planner change pass.
var goldenMPCSessions = map[string]string{
	"fcc/1":    "07317a199f3f9d2b42f5a7b86c867f354fc73333afbb62b62e7bf15a2203468d",
	"fcc/2":    "0805e2a71be8c3c4cbd6bf0c7a9dbfed94ae1f0afe9ce62302d2880391a05926",
	"fcc/3":    "00b55e19577c11cf8caa41b554d1d676c3c9234c1231aa8465169079c5851bbc",
	"lte/1":    "88b3bc7a676fe5c33fae056f6550f09c75a6520d93d4330a68cffbf29b0b4679",
	"lte/2":    "31616dfae3af2268f2ec1cb157ca7ece98a70c32b74de9dca6a6f15b89107695",
	"lte/3":    "d6e897ce1a48cc8e4409c27ac227954f6e350303079059e26755161e5703e512",
	"wifi/1":   "cf3d7ec52cb3369d3e887f8cf2f3d7f20fbb2217a60487855f841bc4b4b5967a",
	"wifi/2":   "691a0160cd759f738b0c194094c2f5bb4bf401e04d4283a55b9b8f6dbb1aad79",
	"wifi/3":   "4ab605fc1b234794509db1378c59b3e4fab627913b559bb0c3cb76ecd225fbe7",
	"square/1": "49a9b598887dc6f33d29399441897c4e9de631e3fcea6bc084ddf4cf1c9d59dc",
	"square/2": "85bc5fc47de18b604f21f573382ffce8ca04eb384c7d67121ab8f474e5a34252",
	"square/3": "dc2a54702662845951c7b34bc8593bfac20945d991b0ad28f278682a7c609c7b",
}

// goldenTrace builds the ground-truth bandwidth of one golden session
// the way the engine's corpus does: the seeded generator regimes, and a
// square wave whose band varies with the seed.
func goldenTrace(scenario string, seed int64) (*trace.Trace, error) {
	if scenario == "square" {
		lo, hi := float64(seed), float64(5+seed)
		return trace.SquareWave(lo, hi, float64(20+10*seed), 720)
	}
	cfg, err := trace.RegimeConfig(scenario, seed)
	if err != nil {
		return nil, err
	}
	return trace.Generate(cfg)
}

func TestMPCGoldenSessions(t *testing.T) {
	vid := video.MustSynthesize(video.DefaultConfig(1))
	for _, scenario := range []string{"fcc", "lte", "wifi", "square"} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/%d", scenario, seed)
			gt, err := goldenTrace(scenario, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			net := netem.DefaultConfig()
			net.Seed = seed
			log, _, err := player.Run(player.Config{
				Video: vid, ABR: abr.NewMPC(), Trace: gt, Net: net, BufferCap: 5,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var buf bytes.Buffer
			if err := player.EncodeLog(&buf, log); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != goldenMPCSessions[name] {
				t.Errorf("%s: session digest %s, want %s", name, got, goldenMPCSessions[name])
			}
		}
	}
}
