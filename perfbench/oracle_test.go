package main

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"
)

func TestGeneratorsAreSeeded(t *testing.T) {
	draw := func(seed int64) []DeployCase {
		g := NewAdmissionGen(seed, 0)
		var out []DeployCase
		for i := 0; i < 50; i++ {
			out = append(out, g.Next())
		}
		return out
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Error("same seed drew different admission requests")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("different seeds drew the same admission requests")
	}
	if !reflect.DeepEqual(Catalog(3, catalogSize), Catalog(3, catalogSize)) {
		t.Error("same seed built different catalogs")
	}
	configs := map[string]bool{}
	for _, c := range draw(7) {
		if configs[c.Req.Config+c.Req.Requirements] {
			t.Errorf("request %s repeats an earlier config", c.Req.ModuleName)
		}
		configs[c.Req.Config+c.Req.Requirements] = true
	}
}

func TestClassify(t *testing.T) {
	placed, _ := json.Marshal(map[string]any{"id": "pm-3", "platform": "Platform1", "sandboxed": true})
	cases := []struct {
		status int
		body   string
		want   Outcome
		err    bool
	}{
		{http.StatusCreated, string(placed), Outcome{Verdict: Sandboxed, Platform: "Platform1", ID: "pm-3"}, false},
		{http.StatusUnprocessableEntity, `{"error":"controller: request rejected: security: spoofs"}`, Outcome{Verdict: RejectedSecurity}, false},
		{http.StatusUnprocessableEntity, `{"error":"controller: request rejected: platform Platform3: requirement \"x\": no"}`, Outcome{Verdict: RejectedPolicy}, false},
		{http.StatusUnprocessableEntity, `{"error":"controller: request rejected: something else"}`, Outcome{}, true},
		{http.StatusServiceUnavailable, `{"error":"busy"}`, Outcome{}, true},
	}
	for _, c := range cases {
		got, err := Classify(c.status, []byte(c.body))
		if (err != nil) != c.err || got != c.want {
			t.Errorf("Classify(%d, %s) = %+v, %v; want %+v, error %v", c.status, c.body, got, err, c.want, c.err)
		}
	}
}

// Each generated kind reaches its expected verdict against a real
// daemon, and a case whose expected verdict is deliberately wrong is
// counted as failed.
func TestAdmissionOracleCountsWrongVerdicts(t *testing.T) {
	d, err := setupAdmission(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	hc := newHTTPClient(d.url, 1)
	defer hc.close()

	g := NewAdmissionGen(1, 0)
	seen := map[Verdict]bool{}
	var ops []admitOp
	for i := 0; i < 40; i++ {
		c := g.Next()
		op := admitCycle(hc, c, false, nil, nil, "")
		if op.fail != "" {
			t.Fatalf("request failed the oracle: %s", op.fail)
		}
		seen[c.Want] = true
		op.blk = 1
		ops = append(ops, op)
	}
	for _, v := range []Verdict{Admitted, Sandboxed, RejectedSecurity, RejectedPolicy} {
		if !seen[v] {
			t.Errorf("40 draws never produced a %s request", v)
		}
	}

	wrong := g.Next()
	for wrong.Want != Admitted {
		wrong = g.Next()
	}
	wrong.Want, wrong.WantPlatform = RejectedSecurity, ""
	bad := admitCycle(hc, wrong, false, nil, nil, "")
	if bad.fail == "" {
		t.Fatal("a deliberately wrong expected verdict passed the oracle")
	}
	bad.blk = 1
	ops = append(ops, bad)

	now := time.Now()
	b := blockSet[admitLayers]{edges: []time.Time{now.Add(-time.Second), now}, snaps: make([]admitLayers, 2)}
	res := admissionResult(runConfig{}, []float64{0.1}, b, [][]admitOp{ops}, 0, 1)
	if res.attempted != len(ops) || res.failed != 1 {
		t.Errorf("attempted %d failed %d, want %d and 1", res.attempted, res.failed, len(ops))
	}
	line, err := res.json(false)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Correct bool }
	if err := json.Unmarshal([]byte(line), &out); err != nil || out.Correct {
		t.Errorf("result line %s should report correct=false", line)
	}
}

func TestForwardOracle(t *testing.T) {
	s, err := setupForward(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	g := NewForwardGen(1, s.mods)
	var denied, graph int
	for i := 0; i < 300; i++ {
		b := g.Next()
		resp, err := s.d.sim.Inject(b.Req)
		if err != nil || !b.Check(resp) {
			t.Fatalf("burst %d %+v failed the oracle: %+v %v", i, b.Req, resp, err)
		}
		if b.Denied {
			denied++
		}
		if b.Mod == 2 {
			graph++
		}
		if i%50 == 0 && b.WantN > 0 {
			b.Want.DstPort++
			if b.Check(resp) {
				t.Fatal("a wrong expected 5-tuple passed the oracle")
			}
			b.Want.DstPort--
			b.WantN++
			if b.Check(resp) {
				t.Fatal("a wrong expected count passed the oracle")
			}
		}
	}
	if denied == 0 || graph == 0 {
		t.Errorf("300 bursts: %d denied, %d to the graph-walk module", denied, graph)
	}
}

// The replicas built from public calls emit what Simulator.Inject
// emits, burst for burst.
func TestReplicaMatchesSimulator(t *testing.T) {
	s, err := setupForward(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	f := &fwdRun{cfg: runConfig{trace: true}, s: s, gen: NewForwardGen(2, s.mods), equivalent: true}
	if err := f.buildReplicas(); err != nil {
		t.Fatal(err)
	}
	for _, b := range f.gen.Prime() {
		f.step(b, 0)
	}
	f.work = make([]float64, 2)
	f.blockLat = make([][]float64, 2)
	for i := 0; i < 200; i++ {
		f.step(f.gen.Next(), 2)
	}
	if !f.equivalent || f.equivChecked != 200 || f.res.failed != 0 {
		t.Errorf("equivalence %v over %d bursts, %d failed", f.equivalent, f.equivChecked, f.res.failed)
	}
}
