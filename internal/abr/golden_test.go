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

// goldenArmSessions pins every decision of the other three algorithms
// the same way: one full-clip session per algorithm and buffer × golden
// scenario × 3 seeds, keyed "alg-buffer/scenario/seed". BBA and BOLA run
// at the 5 s and 30 s buffers of the what-if arms, Festive at 5 s. They
// were computed while each algorithm's parameters were still settable
// fields, so they pin that turning the parameters into constants moved
// no decision. Do not regenerate these to make an algorithm change pass.
var goldenArmSessions = map[string]string{
	"bba-5/fcc/1":        "41dd7bfb8ea5750c0dea6064c2f493ea08ce4dd3928ef15bb837e66ca96c6f12",
	"bba-5/fcc/2":        "52ae8ce4f5e979b3d8e20e88c26c0ed9821990f9fb869614f5deae835decbc89",
	"bba-5/fcc/3":        "e7a5aa2acef236bfa1e6dced5b6801147491c93fb7b4443ce4118a4c8f1e41d8",
	"bba-5/lte/1":        "cbdca638344d42fe0c0c2cf5011349088ebdcb070e2d4d45a2aa920d6b33d846",
	"bba-5/lte/2":        "b6c45109c429b60aa2de1b29992587865a17b3946db5a4b89fe478824ee82924",
	"bba-5/lte/3":        "6b464f51e053170082f103424655be6537cf7ee8e616b25fe6ddd948adf99359",
	"bba-5/wifi/1":       "facdcb3ac5e44003da4145b54283c92c6613869facfc0df64f25d7c444b6f7f9",
	"bba-5/wifi/2":       "14837cbdaa9840d64b13373856bab7ca09b916b1993ba848198bed9e14f4321d",
	"bba-5/wifi/3":       "34dff1167fa0ad5e26f8335d0d7c4a70fe04f110c6c8d5882371a4f0a021aac9",
	"bba-5/square/1":     "08a7c205493e70fcbb424e2835a2e414b6c64b7e0687abc0488005b2bdc531ee",
	"bba-5/square/2":     "879a0c37404b71b9bc19c9790b3767ae202a2b3dcc18cfbfc7d805b8e6422fa7",
	"bba-5/square/3":     "1545671667b004675a5d0db0444ebd5256f60fe21f753175f12b191f9f8ed998",
	"bba-30/fcc/1":       "1225ade25e292bfd9e4afbee0ee759381107f9b73624e1ac75829ebed7f75a98",
	"bba-30/fcc/2":       "b909fc15039997fe48b00a9ee782f716c0c0e3ec05ee078a535ff333de9242ff",
	"bba-30/fcc/3":       "f4080c00abfe28b2c3e25eed8e7ef1b4b52da0de7461dff4e6592bdf824ef9c7",
	"bba-30/lte/1":       "a96078ffddd4bad24aa48700de8cfb1c5a03b6737e2c05f6040ede0da7f720cd",
	"bba-30/lte/2":       "8e982cc8f3169cb004ceed42d37e10284ec23c2bc4cfd3a584b544d079cff907",
	"bba-30/lte/3":       "93f49dcc6c53672c6a2032e94a4c1c75c7697c16b3dffd0759c44a8c1b93c78c",
	"bba-30/wifi/1":      "1740891925b7644547fdd899a576372e0922719cc49e2a6855bd363976f8dd3d",
	"bba-30/wifi/2":      "649baf62390b442c9e7a453fddb33afae4d31cdb39a194e0a4cb52afff009c3e",
	"bba-30/wifi/3":      "3ed13cee2b62fdd2452f5d527ffce481d38b1df104bf5418d76c8c9eae729ff1",
	"bba-30/square/1":    "339da1663bb2520a1b748b9c51a7a54132561dabfdd507c10cb19e8f7cc51efc",
	"bba-30/square/2":    "72ddf61a43c1f0bb6982a6e750d4e5f9d8dc4c8ea0c5b94ce99944e5ad9b5c39",
	"bba-30/square/3":    "b73e898aaa63684a4cf717ccf65d39d3b0992fdcb956fa847f4fb282d85de493",
	"bola-5/fcc/1":       "7d569d67d56c0bd6c9326073db31bca3f6eb791563c465d00064845a48c5dc2f",
	"bola-5/fcc/2":       "3715e1abb445ed4b94869a93f4e0fe3ea22c6cb54b3f06ce2757a6ddeeefbe71",
	"bola-5/fcc/3":       "4c877da28aa3879b638009b4ff3a3bcd110114ef63824f12c0baa4195ed43f9b",
	"bola-5/lte/1":       "b4f66daab6311a109be455eab5e0db69084dd4b7638c85ae1b2fc1e56b557e0f",
	"bola-5/lte/2":       "842b7a84f897d516f756373b256f9123cd446a20215dee0aee62a7c44ff11e1d",
	"bola-5/lte/3":       "f1386e92618cc2109a2be2f503187092173aad35816018cdbd74df9ad60ec9bc",
	"bola-5/wifi/1":      "3a0e8f29001b2a97cbce9edfc8f71683bc143d6bf00c06a872a8130428209059",
	"bola-5/wifi/2":      "445dbb4163091d582eb90e89f6903d345f9331b97a247793adfbcce995efe052",
	"bola-5/wifi/3":      "106e1f1bde73a0acdbb575335ec9602e8c83fddc083f4cdb0036fa7e3e8bd366",
	"bola-5/square/1":    "017824a9047b3cf66f8867b5b9868ceab19fcb50ab27aee2de446cec76e91a26",
	"bola-5/square/2":    "3252d6a1eb5cd50a34863fbd82f90b8475e32472184dbf0c436b198539059d91",
	"bola-5/square/3":    "14cdde0445e93041fbfb46b500a4a36f8f0246ae4fb7c577eff3734783587919",
	"bola-30/fcc/1":      "739da4f68e56baf9031b78fb70a186266f4ae4d71c6bad7265ef451a45ff1c17",
	"bola-30/fcc/2":      "0442fa2dd259f4ab561d7bb7af61be35b966cdd2f407adb34a2f5e0d5690316c",
	"bola-30/fcc/3":      "a028d27f727c8137c4a5effe8434042e85939c150e9a375d4a15e1b97e523ebf",
	"bola-30/lte/1":      "fdcf7671431c2957274eafc7e043bfa485fa31e016cb5e6edb737b36dc4d862c",
	"bola-30/lte/2":      "14b9ccc85350e7171bb3c7a04c349f40e66605e4f2676b4e5bb9847f9a74e69b",
	"bola-30/lte/3":      "c2e2951188f005a1948a79167c6fe2065df1bed8f44164a93a2342a88455b4d6",
	"bola-30/wifi/1":     "7d7045d2c3c6815da33f3d0db62dc87e1b106c348cc5dac2bab6621bb6698ac1",
	"bola-30/wifi/2":     "2d5a9e121965a1a76946a7e9646e8de042ea3c05e2fd7b957eac6e830ce8d0d2",
	"bola-30/wifi/3":     "b237f6b47f5675e9e352cbfaec46f13e8af324db5a99e21b3ba3bccc72a8c430",
	"bola-30/square/1":   "ff40361e2f61351ab7589214e25dc2894d3ca94a6e7f9a176fa5b6aacb298483",
	"bola-30/square/2":   "d8a045b4e51d59da342556b6f7521c1a12ef071ab8171b4798ff44bb7d4aa009",
	"bola-30/square/3":   "f794207165bd2200e89c27bd75cd9a33a5fbb6d01b9a776c0fe61f4d3119b62f",
	"festive-5/fcc/1":    "e0f75bf56f908e16ccc0b857114cb1fd6a3839ab6e0715e44ec24b52240a3725",
	"festive-5/fcc/2":    "0c94fac5db14a7f08081e66277d82261964d45e5b1156726fe7ddb7cce607d0b",
	"festive-5/fcc/3":    "397ecb38df010a030fe2b7577e5833ba115702fb062a39501eefd5c73373b5ca",
	"festive-5/lte/1":    "c56f7be68b08bbe7687e9a1e540b1ab7ce233f78cfd4a8fb9b5cb214e13e4ae9",
	"festive-5/lte/2":    "3df63eb3381ff3fbb4d316f7c23e8727fa12543a6d224e7d9d1db57ab182360d",
	"festive-5/lte/3":    "ddfff533b2c4b2daecff16a7ec4677a14c21dd8c40daefe9e530066f0bac8d32",
	"festive-5/wifi/1":   "9695b4ef147a95430bb321e471f24fbc8eeeae2dc0da3d0e79b91249e95fce72",
	"festive-5/wifi/2":   "207feba62206836844fd5ceb25094ed46fe51159f80578da5fe87526d79c5d04",
	"festive-5/wifi/3":   "ccec2da6280b9d67a511937cac4b003a92ca1b84de1c456d9f702ed92ca3f12e",
	"festive-5/square/1": "0d5a287f5aba6c726da50894c961a2a607d905b500fd279c067794182eb85c68",
	"festive-5/square/2": "56669fcbe9395eb6fe1f959ba49e2ef5027b05470ef61a503e31d2a17c1132a3",
	"festive-5/square/3": "b9f5c51ad99485a9c46281e09876414bd35bbd6d22219b7ec5880c0781927903",
}

func TestArmGoldenSessions(t *testing.T) {
	vid := video.MustSynthesize(video.DefaultConfig(1))
	arms := []struct {
		name   string
		alg    func() abr.Algorithm
		buffer float64
	}{
		{"bba-5", func() abr.Algorithm { return abr.NewBBA() }, 5},
		{"bba-30", func() abr.Algorithm { return abr.NewBBA() }, 30},
		{"bola-5", func() abr.Algorithm { return abr.NewBOLA() }, 5},
		{"bola-30", func() abr.Algorithm { return abr.NewBOLA() }, 30},
		{"festive-5", func() abr.Algorithm { return abr.NewFestive() }, 5},
	}
	for _, arm := range arms {
		for _, scenario := range []string{"fcc", "lte", "wifi", "square"} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/%d", arm.name, scenario, seed)
				gt, err := goldenTrace(scenario, seed)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				net := netem.DefaultConfig()
				net.Seed = seed
				log, _, err := player.Run(player.Config{
					Video: vid, ABR: arm.alg(), Trace: gt, Net: net, BufferCap: arm.buffer,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var buf bytes.Buffer
				if err := player.EncodeLog(&buf, log); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != goldenArmSessions[name] {
					t.Errorf("%s: session digest %s, want %s", name, got, goldenArmSessions[name])
				}
			}
		}
	}
}
