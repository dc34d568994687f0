package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"optspeed/internal/service"
	"optspeed/internal/telemetry"
)

func TestLatencyPercentileCountsSamples(t *testing.T) {
	var xs []time.Duration
	for i := 100; i >= 1; i-- {
		xs = append(xs, time.Duration(i)*time.Millisecond)
	}
	for _, tc := range []struct {
		q      float64
		want   time.Duration
		beyond int
	}{
		{0.50, 50 * time.Millisecond, 50},
		{0.95, 95 * time.Millisecond, 5},
		{0.99, 99 * time.Millisecond, 1},
		{1.00, 100 * time.Millisecond, 0},
	} {
		p := latencyPercentile(xs, tc.q)
		if p.value != tc.want || p.samples != 100 || p.beyond != tc.beyond {
			t.Errorf("q=%v: got %v of %d (%d beyond), want %v of 100 (%d beyond)",
				tc.q, p.value, p.samples, p.beyond, tc.want, tc.beyond)
		}
	}
	if p := latencyPercentile([]time.Duration{7}, 0.95); p.value != 7 || p.samples != 1 || p.beyond != 0 {
		t.Errorf("single sample: %+v", p)
	}
	if p := latencyPercentile(nil, 0.5); p.value != 0 || p.samples != 0 {
		t.Errorf("no samples: %+v", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("median of nothing = %v, want NaN", m)
	}
}

func TestWindowFiguresAreMediansOfParts(t *testing.T) {
	st := &opStats{elapsed: subWindows * time.Second}
	for k := 0; k < subWindows; k++ {
		for i := 0; i < 10*(k+1); i++ {
			st.latencies = append(st.latencies, time.Duration(k+1)*time.Millisecond)
			st.finished = append(st.finished, time.Duration(k)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	ops, p50, p95, rates := st.windowFigures(subWindows * time.Second)
	if len(rates) != subWindows || rates[0] != 10 || rates[subWindows-1] != 10*subWindows {
		t.Fatalf("rates %v", rates)
	}
	// Parts at 10, 20, ... ops/s: the median is the mean of the middle two.
	if want := 5.0 * (subWindows + 1); ops != want {
		t.Errorf("ops_per_s = %v, want %v", ops, want)
	}
	// Part k's latencies are all k+1 ms; the lower middle part is k=(n-1)/2.
	mid := (subWindows - 1) / 2
	if p50.value != time.Duration(mid+1)*time.Millisecond || p50.samples != 10*(mid+1) || p95.value != p50.value {
		t.Errorf("p50 %+v, p95 %+v", p50, p95)
	}

	// With steal sampled, only the least-stolen half of the parts count:
	// here the first half, at 10..40 ops/s with latencies of 1..4 ms.
	st.steal = make([]float64, subWindows)
	for k := subWindows / 2; k < subWindows; k++ {
		st.steal[k] = 0.2
	}
	ops, p50, _, rates = st.windowFigures(subWindows * time.Second)
	if len(rates) != subWindows || ops != 25 || p50.value != 2*time.Millisecond || p50.samples != 20 {
		t.Errorf("least-stolen half: ops_per_s %v, p50 %+v, rates %v", ops, p50, rates)
	}
}

// scrapeOf renders a registry the way the daemon's GET /metrics does.
func scrapeOf(t *testing.T, r *telemetry.Registry) promSample {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := parseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCounterDeltasFromValidatedScrapes(t *testing.T) {
	r := telemetry.NewRegistry()
	shed := map[string]*telemetry.Counter{}
	for _, reason := range []string{"evicted", "queue_full", "wait_expired"} {
		shed[reason] = r.NewCounter("optspeed_admission_gate_shed_total", "sheds", telemetry.L("reason", reason))
	}
	admitted := r.NewCounter("optspeed_admission_gate_admitted_total", "admitted")
	h := r.NewHistogram("optspeed_http_request_duration_seconds", "latency", []float64{0.001, 0.01}, telemetry.L("endpoint", "sweep"))
	admitted.Add(5)
	shed["evicted"].Inc()
	h.Observe(0.002)
	before := scrapeOf(t, r)

	admitted.Add(7)
	shed["queue_full"].Add(2)
	shed["wait_expired"].Add(3)
	h.Observe(0.004)
	h.Observe(0.0005)
	after := scrapeOf(t, r)

	for name, want := range map[string]float64{
		"optspeed_admission_gate_admitted_total":       7,
		"optspeed_admission_gate_shed_total":           5,
		"optspeed_http_request_duration_seconds_count": 2,
		"optspeed_http_request_duration_seconds_sum":   0.0045,
		"optspeed_wal_fsyncs_total":                    0, // absent on both sides
	} {
		if got := delta(before, after, name); math.Abs(got-want) > 1e-12 {
			t.Errorf("delta %s = %v, want %v", name, got, want)
		}
	}
	// A family name must not match a longer family that shares its prefix.
	if got := after.sum("optspeed_admission_gate_admitted"); got != 0 {
		t.Errorf("prefix matched another family: %v", got)
	}
}

func TestParseExpositionRejectsMalformedPage(t *testing.T) {
	for _, page := range []string{
		"optspeed_x_total 1\n", // sample without a TYPE line
		"# TYPE optspeed_x_total counter\noptspeed_x_total{a=\"1} 1\n",
	} {
		if _, err := parseExposition([]byte(page)); err == nil {
			t.Errorf("accepted %q", page)
		}
	}
}

func TestSelfTimeSubtractsLowerLayerPerInput(t *testing.T) {
	upper := opTimes{10 * time.Microsecond, 30 * time.Microsecond, 20 * time.Microsecond}
	lower := opTimes{4 * time.Microsecond, 26 * time.Microsecond, 11 * time.Microsecond}
	if got, want := selfTime(upper, lower), 19*time.Microsecond/3; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(upper, lower[:2]); got != 0 {
		t.Errorf("mismatched inputs gave %v, want 0", got)
	}
	// A lower layer slower than its caller on some input shows as a
	// negative contribution, not clamped away.
	if got := selfTime(opTimes{time.Millisecond}, opTimes{2 * time.Millisecond}); got != -time.Millisecond {
		t.Errorf("selfTime = %v, want -1ms", got)
	}
}

func TestFailedRatioCountsShedsAndWrongOutputs(t *testing.T) {
	rf := newReference()
	q := service.OptimizeRequest{N: 256, Stencil: "5-point", Shape: "square", Machine: machines[2]}
	req := &request{kind: kindOptimize, path: "/v1/optimize", body: mustJSON(q), opt: &q}
	good, err := rf.expectedBody(req, false)
	if err != nil {
		t.Fatal(err)
	}
	wrong := bytes.Replace(good, []byte(`"procs":14`), []byte(`"procs":15`), 1)
	if bytes.Equal(wrong, good) {
		t.Fatalf("reference body has no procs 14: %s", good)
	}
	replies := []func(w http.ResponseWriter){
		func(w http.ResponseWriter) { w.Write(good) },
		func(w http.ResponseWriter) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		},
		func(w http.ResponseWriter) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
		},
		func(w http.ResponseWriter) { w.Write(wrong) },
		func(w http.ResponseWriter) { w.WriteHeader(http.StatusInternalServerError) },
		func(w http.ResponseWriter) { w.Write(good) },
	}
	i := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		replies[i](w)
		i++
	}))
	defer srv.Close()
	c := newClient(srv.URL, rf)
	defer c.close()
	var st opStats
	for range replies {
		st.record(time.Millisecond, c.run(context.Background(), req))
	}
	if st.attempted != 6 || st.failed != 4 || st.shed != 2 || st.wrong != 1 || len(st.latencies) != 2 {
		t.Fatalf("stats %+v", st)
	}
	if got := st.failedRatio(); got != 4.0/6 {
		t.Errorf("failed_ratio = %v, want 4/6", got)
	}
	var wo *wrongOutput
	if !errors.As(st.firstErr, new(*httpError)) || errors.As(st.firstErr, &wo) {
		t.Errorf("first failure %v, want the 429", st.firstErr)
	}

	// A cold reply checked after the window counts the same way.
	cold := &opStats{attempted: 1, latencies: []time.Duration{time.Millisecond}}
	if err := checkCold(rf, []coldBody{{req: req, got: digestOf(wrong)}}, cold); err == nil {
		t.Fatal("wrong cold reply passed")
	}
	if cold.failed != 1 || cold.wrong != 1 || cold.failedRatio() != 1 {
		t.Errorf("cold stats %+v", cold)
	}
	if err := checkCold(rf, []coldBody{{req: req, got: digestOf(good)}}, &opStats{}); err != nil {
		t.Errorf("correct cold reply failed: %v", err)
	}
}

// TestMetricNamesMatchBenchmarkFile holds BENCHMARK.json, layers.json
// and the metrics the program prints to one set of names.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	w := &windowRun{st: &opStats{attempted: 1, elapsed: time.Second}, windowOps: 1, front: [2]promSample{{}, {}}, all: [2]promSample{{}, {}}}
	check := func(kind string, listed []struct{ Name, Unit string }, emitted map[string]metric) {
		var got []string
		for _, m := range listed {
			got = append(got, m.Name)
			if e, ok := emitted[m.Name]; !ok || e.Unit != m.Unit {
				t.Errorf("%s %s (%s): emitted %+v", kind, m.Name, m.Unit, e)
			}
		}
		if len(got) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(got), len(emitted))
		}
	}
	check("end_to_end", bench.EndToEnd, w.endToEnd())
	layers := w.counterLayers()
	for name, unit := range tracedMetrics {
		layers[name] = metric{Unit: unit}
	}
	check("per_layer", bench.PerLayer, layers)

	// The listed workloads are the ones the program runs.
	for _, wl := range bench.Workloads {
		if _, err := makeWorkload(wl.Name, 1); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", wl.Name, err)
		}
	}
	if len(bench.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %v", len(bench.Workloads), workloadNames)
	}

	var meta struct {
		ClaimSeed int64 `json:"claim_check_seed"`
		Layers    map[string]struct {
			Moves    string `json:"moves"`
			Steady   string `json:"steady"`
			Measured string `json:"measured"`
		} `json:"per_layer"`
	}
	raw, err = os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.ClaimSeed == 0 {
		t.Error("layers.json names no claim-check seed")
	}
	for name, l := range meta.Layers {
		if _, ok := layers[name]; !ok {
			t.Errorf("layers.json maps unknown metric %s", name)
		}
		if l.Moves == "" || l.Steady == "" || l.Measured == "" {
			t.Errorf("layers.json entry %s is incomplete: %+v", name, l)
		}
	}
	if len(meta.Layers) != len(layers) {
		t.Errorf("layers.json maps %d metrics, the program emits %d", len(meta.Layers), len(layers))
	}
}
