package serve

// The /v1 query surface's shared request grammar. Every report-family
// endpoint accepts the same filter parameters, parsed in one place:
//
//	scenario=<label>     restrict to one scenario (absent = whole corpus;
//	                     present-but-empty is an unknown scenario, 404)
//	abr=<prefix>         restrict the report to arms named <prefix> or
//	                     <prefix>-*  (arm names are "<abr>" or "<abr>-variant")
//	arm=<name>           one arm exactly (the series endpoints require it)
//	metric=<key>         report metric: ssim | rebuf | bitrate (default ssim)
//	estimator=<name>     truth | baseline | veritas-low | veritas-high |
//	                     veritas-mid (default veritas-mid)
//	percentiles=a,b,c    percentile ranks in [0,100] (default
//	                     10,25,50,75,90,95,99; at most 32)
//
// Parsing is purely syntactic — 400s come from here; whether a
// scenario or arm actually exists is the handler's corpus-backed
// validation, which 404s. Errors from both wear one JSON envelope:
//
//	{"error": {"status": 404, "message": "...", "param": "scenario"}}
//
// so clients branch on one shape whatever went wrong, and the param
// field says which query parameter to fix.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"veritas/internal/engine"
)

// maxPercentiles bounds one request's percentile list.
const maxPercentiles = 32

// defaultPercentiles is served when the parameter is absent.
var defaultPercentiles = []float64{10, 25, 50, 75, 90, 95, 99}

// apiError is one /v1 error, rendered inside the shared envelope.
type apiError struct {
	Status  int    `json:"status"`
	Message string `json:"message"`
	// Param names the query parameter at fault, when one is.
	Param string `json:"param,omitempty"`
}

// writeAPIError renders err in the uniform /v1 envelope.
func writeAPIError(w http.ResponseWriter, err *apiError) {
	body, merr := json.Marshal(map[string]*apiError{"error": err})
	if merr != nil {
		http.Error(w, err.Message, err.Status)
		return
	}
	writeBody(w, err.Status, body)
}

func errBadParam(param, format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Message: fmt.Sprintf(format, args...), Param: param}
}

func errNotFound(param, format string, args ...any) *apiError {
	return &apiError{Status: http.StatusNotFound, Message: fmt.Sprintf(format, args...), Param: param}
}

func errInternal(err error) *apiError {
	return &apiError{Status: http.StatusInternalServerError, Message: err.Error()}
}

// reportQuery is one parsed report-family request.
type reportQuery struct {
	scenario    string
	scenarioSet bool // the parameter was present (even if empty)
	abr         string
	arm         string
	metricKey   string // canonical key, e.g. "ssim"
	metricIdx   int    // index into engine.ReportMetrics
	estimator   engine.ArmEstimator
	percentiles []float64
}

// cacheKey is the canonical identity of the query for the body cache:
// spellings that parse to the same query share a key (percentiles=50,90,
// "50, 90" and 50.0,90; an explicit default list and an absent one),
// and no two different queries do. The free-text filters are quoted, so
// no byte inside one can pass for a field boundary. Percentile order
// stays significant, as it is in the response.
func (q *reportQuery) cacheKey(endpoint string) string {
	b := fmt.Appendf(nil, "%s %t%q%q%q%s %s", endpoint, q.scenarioSet, q.scenario, q.abr, q.arm, q.metricKey, q.estimator)
	for _, p := range q.percentiles {
		b = strconv.AppendFloat(append(b, ','), p, 'g', -1, 64)
	}
	return string(b)
}

// armOK returns the ABR-prefix arm filter, nil when unfiltered. Arm
// names are "<abr>" or "<abr>-<variant>", so the filter accepts exact
// matches and the "-" extension, never bare prefixes ("bba" must not
// catch "bbasic").
func (q *reportQuery) armOK() func(string) bool {
	if q.abr == "" {
		return nil
	}
	abr := q.abr
	return func(name string) bool {
		return name == abr || strings.HasPrefix(name, abr+"-")
	}
}

// parseReportQuery parses the shared filter grammar; nil apiError on
// success. Syntactic only — existence checks are validateQuery's.
func parseReportQuery(vals url.Values) (*reportQuery, *apiError) {
	q := &reportQuery{
		scenario:    vals.Get("scenario"),
		scenarioSet: vals.Has("scenario"),
		abr:         vals.Get("abr"),
		arm:         vals.Get("arm"),
		estimator:   engine.EstVeritasMid,
		metricKey:   engine.ReportMetrics()[0].Key,
	}
	if m := vals.Get("metric"); m != "" {
		idx, ok := engine.MetricIndex(m)
		if !ok {
			return nil, errBadParam("metric", "unknown metric %q (want one of %s)", m, metricKeys())
		}
		q.metricIdx = idx
		q.metricKey = engine.ReportMetrics()[idx].Key
	}
	if e := vals.Get("estimator"); e != "" {
		est, ok := engine.ParseEstimator(e)
		if !ok {
			return nil, errBadParam("estimator", "unknown estimator %q (want one of %s)", e, estimatorNames())
		}
		q.estimator = est
	}
	rawPcts := vals.Get("percentiles")
	if rawPcts == "" {
		q.percentiles = defaultPercentiles
		return q, nil
	}
	parts := strings.Split(rawPcts, ",")
	if len(parts) > maxPercentiles {
		return nil, errBadParam("percentiles", "at most %d percentiles per request (got %d)", maxPercentiles, len(parts))
	}
	for _, part := range parts {
		p, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, errBadParam("percentiles", "percentile %q is not a number", strings.TrimSpace(part))
		}
		// Written so that NaN (which ParseFloat accepts, and which fails
		// every comparison) is rejected along with ±Inf.
		if !(p >= 0 && p <= 100) {
			return nil, errBadParam("percentiles", "percentile %g outside [0, 100]", p)
		}
		q.percentiles = append(q.percentiles, p)
	}
	return q, nil
}

func metricKeys() string {
	var keys []string
	for _, m := range engine.ReportMetrics() {
		keys = append(keys, m.Key)
	}
	return strings.Join(keys, ", ")
}

func estimatorNames() string {
	var names []string
	for _, est := range engine.Estimators() {
		names = append(names, string(est))
	}
	return strings.Join(names, ", ")
}
