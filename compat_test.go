package veritas_test

// The facade's compile contract: every exported identifier of the
// single-session and fleet-type surface must keep compiling at its
// original signature. This file references each of them; it fails to
// build if any is renamed, removed, or changes signature. (The
// pre-Campaign free functions — RunFleet, BuildCorpus, FleetMatrix,
// NewStoreHandler, ServeStore and friends — were deleted with their
// pins; NewCampaign and internal/engine are the spellings.)

import (
	"testing"

	"veritas"
)

// Old type names, one variable each.
var (
	_ *veritas.Trace             = nil
	_ veritas.TraceConfig        = veritas.TraceConfig{}
	_ *veritas.SessionLog        = nil
	_ veritas.ChunkRecord        = veritas.ChunkRecord{}
	_ veritas.Metrics            = veritas.Metrics{}
	_ veritas.ABR                = nil
	_ *veritas.Video             = nil
	_ veritas.Quality            = veritas.Quality{}
	_ veritas.NetworkConfig      = veritas.NetworkConfig{}
	_ veritas.TCPState           = veritas.TCPState{}
	_ veritas.AbductionConfig    = veritas.AbductionConfig{}
	_ *veritas.Abduction         = nil
	_ veritas.SessionConfig      = veritas.SessionConfig{}
	_ *veritas.Session           = nil
	_ veritas.WhatIf             = veritas.WhatIf{}
	_ *veritas.Outcome           = nil
	_ veritas.QoEWeights         = veritas.QoEWeights{}
	_ veritas.FleetSpec          = veritas.FleetSpec{}
	_ veritas.FleetArm           = veritas.FleetArm{}
	_ *veritas.FleetResult       = nil
	_ veritas.FleetSessionResult = veritas.FleetSessionResult{}
	_ veritas.FleetCacheStats    = veritas.FleetCacheStats{}
	_ *veritas.FleetStore        = nil
	_ veritas.FleetStoreOptions  = veritas.FleetStoreOptions{}
	_ veritas.FleetRow           = veritas.FleetRow{}
	_ veritas.FleetArmOutcome    = veritas.FleetArmOutcome{}
	_ veritas.FleetReport        = veritas.FleetReport{}
)

// Old function names, pinned at their original signatures.
var (
	_ func(int64) veritas.TraceConfig                                                = veritas.DefaultTraceConfig
	_ func(veritas.TraceConfig) (*veritas.Trace, error)                              = veritas.GenerateTrace
	_ func(veritas.TraceConfig, int) ([]*veritas.Trace, error)                       = veritas.GenerateTraceSet
	_ func(float64) *veritas.Trace                                                   = veritas.ConstantTrace
	_ func() veritas.ABR                                                             = veritas.NewMPC
	_ func() veritas.ABR                                                             = veritas.NewBBA
	_ func() veritas.ABR                                                             = veritas.NewBOLA
	_ func() veritas.ABR                                                             = veritas.NewFestive
	_ func(int64) veritas.ABR                                                        = veritas.NewRandomABR
	_ func(int) veritas.ABR                                                          = veritas.NewFixedABR
	_ func(int64) *veritas.Video                                                     = veritas.DefaultVideo
	_ func(int64) *veritas.Video                                                     = veritas.HigherQualityVideo
	_ func() veritas.NetworkConfig                                                   = veritas.DefaultNetwork
	_ func(veritas.SessionConfig) (*veritas.Session, error)                          = veritas.RunSession
	_ func(*veritas.SessionLog, veritas.AbductionConfig) (*veritas.Abduction, error) = veritas.Abduct
	_ func(*veritas.SessionLog) (*veritas.Trace, error)                              = veritas.Baseline
	_ func(*veritas.Abduction, veritas.WhatIf) (*veritas.Outcome, error)             = veritas.Counterfactual
	_ func(*veritas.Trace, veritas.WhatIf) (veritas.Metrics, error)                  = veritas.Oracle
	_ func(*veritas.Abduction, float64, veritas.TCPState, float64) float64           = veritas.PredictDownloadTime
	_ func() veritas.QoEWeights                                                      = veritas.DefaultQoEWeights
	_ func(*veritas.SessionLog, veritas.QoEWeights) float64                          = veritas.QoE
	_ func(*veritas.Abduction, float64, float64) float64                             = veritas.PredictNextChunkTime
	_ func(string, veritas.FleetStoreOptions) (*veritas.FleetStore, error)           = veritas.OpenStore
	_ func(string, ...string) (int, error)                                           = veritas.MergeStores
)

// Old methods, pinned as method values.
func TestCompatMethodSet(t *testing.T) {
	var o veritas.Outcome
	for name, fn := range map[string]func() (float64, float64){
		"SSIMRange":    o.SSIMRange,
		"RebufRange":   o.RebufRange,
		"BitrateRange": o.BitrateRange,
	} {
		if fn == nil {
			t.Errorf("Outcome.%s lost", name)
		}
	}
}
