package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"

	"github.com/in-net/innet/internal/api"
)

// Verdict is the admission outcome a generated deploy request is
// built to reach. The oracle compares it with what the daemon
// answered.
type Verdict string

const (
	Admitted         Verdict = "admitted"
	Sandboxed        Verdict = "sandboxed"
	RejectedSecurity Verdict = "rejected-security"
	RejectedPolicy   Verdict = "rejected-policy"
)

// Platform names of the paper's Fig. 3 topology the daemon serves.
const (
	platform1 = "Platform1"
	platform3 = "Platform3"
)

// natTarget is the client address the NAT stages rewrite toward (the
// Fig. 3 client subnet is 10.1.0.0/16).
const natTarget = "10.1.15.133"

// DeployCase is one generated POST /v1/modules request with the
// verdict and platform the oracle expects.
type DeployCase struct {
	Req          api.DeployRequest
	Want         Verdict
	WantPlatform string // empty for rejections
}

// Outcome is what the daemon answered to one deploy.
type Outcome struct {
	Verdict  Verdict
	Platform string
	ID       string // deployment ID when placed
}

// Classify turns a POST /v1/modules response into an Outcome: 201
// means placed (sandboxed or not), 422 a rejection whose reason names
// the stage that refused it. Any other status is an error.
func Classify(status int, body []byte) (Outcome, error) {
	switch status {
	case http.StatusCreated:
		var r api.DeployResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return Outcome{}, fmt.Errorf("decode deploy response: %w", err)
		}
		v := Admitted
		if r.Sandboxed {
			v = Sandboxed
		}
		return Outcome{Verdict: v, Platform: r.Platform, ID: r.ID}, nil
	case http.StatusUnprocessableEntity:
		var e api.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			return Outcome{}, fmt.Errorf("decode rejection: %w", err)
		}
		switch {
		case strings.Contains(e.Error, "security:"):
			return Outcome{Verdict: RejectedSecurity}, nil
		case strings.Contains(e.Error, "requirement"):
			return Outcome{Verdict: RejectedPolicy}, nil
		}
		return Outcome{}, fmt.Errorf("rejection of unknown kind: %s", e.Error)
	}
	return Outcome{}, fmt.Errorf("unexpected status %d: %s", status, strings.TrimSpace(string(body)))
}

// Matches reports whether the daemon's answer is the one the case
// was built to get.
func (c DeployCase) Matches(o Outcome) bool {
	return o.Verdict == c.Want && o.Platform == c.WantPlatform
}

// Shares of the admission mix, in percent: client modules whose reach
// requirement only Platform3 satisfies, third-party tunnels (placed
// and sandboxed), spoofing modules (refused by the security check)
// and requirements no platform satisfies (refused by policy).
const (
	shareReach  = 70
	shareTunnel = 10
	shareSpoof  = 10
)

// AdmissionGen draws deploy requests from a seeded stream. Every
// request gets a distinct module name, and its config is perturbed
// (ports, filter rules, whitelist), so no two requests share a
// whole-config cache entry.
type AdmissionGen struct {
	rng    *rand.Rand
	prefix string
	n      int
}

// NewAdmissionGen returns the request stream of one client.
func NewAdmissionGen(seed int64, client int) *AdmissionGen {
	return &AdmissionGen{
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client))),
		prefix: fmt.Sprintf("c%d", client),
	}
}

// Next draws one request from the mix.
func (g *AdmissionGen) Next() DeployCase {
	g.n++
	name := fmt.Sprintf("%s-%06d", g.prefix, g.n)
	tenant := fmt.Sprintf("tenant-%s-%d", g.prefix, g.n%16)
	switch r := g.rng.Intn(100); {
	case r < shareReach:
		return reachCase(g.rng, tenant, name, false)
	case r < shareReach+shareTunnel:
		return tunnelCase(g.rng, tenant, name)
	case r < shareReach+shareTunnel+shareSpoof:
		return spoofCase(g.rng, tenant, name)
	default:
		return reachCase(g.rng, tenant, name, true)
	}
}

// Catalog returns the fixed admit-warm request set: n requests of the
// same kinds as the cold mix (reach-heavy, plus one tunnel, one spoof
// and one unsatisfiable request), drawn once from the seed.
func Catalog(seed int64, n int) []DeployCase {
	rng := rand.New(rand.NewSource(seed*104729 + 1))
	out := make([]DeployCase, n)
	for i := range out {
		name := fmt.Sprintf("warm-%02d", i)
		tenant := fmt.Sprintf("tenant-warm-%d", i)
		switch i {
		case 1:
			out[i] = tunnelCase(rng, tenant, name)
		case 2:
			out[i] = spoofCase(rng, tenant, name)
		case 3:
			out[i] = reachCase(rng, tenant, name, true)
		default:
			out[i] = reachCase(rng, tenant, name, false)
		}
	}
	return out
}

// reachCase is a firewall → NAT → classifier → Tee chain in the
// shape of the repo's admission corpus, with a seeded service port,
// extra firewall rules and output ports. Its requirement asks that
// udp traffic from the internet to the service port reaches the
// client through the module's first output, which only the publicly
// routed Platform3 can satisfy. With unsat set, the requirement names
// a port the classifier discards, which no platform satisfies.
func reachCase(rng *rand.Rand, tenant, name string, unsat bool) DeployCase {
	port := 1000 + rng.Intn(9000)
	rules := []string{fmt.Sprintf("allow udp port %d", port), fmt.Sprintf("allow tcp port %d", port)}
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		dir := "src"
		if rng.Intn(2) == 0 {
			dir = "dst"
		}
		rules = append(rules, fmt.Sprintf("allow %s port %d", dir, 20000+rng.Intn(20000)))
	}
	rules = append(rules, "deny all")
	cfg := fmt.Sprintf(`
in :: FromNetfront();
fw :: IPFilter(%s);
nat :: IPRewriter(pattern - - %s - 0 0);
cls :: IPClassifier(dst port %d, -);
t :: Tee(2);
p0 :: SetDstPort(%d);
p1 :: SetDstPort(%d);
out0 :: ToNetfront(0);
out1 :: ToNetfront(1);
drop :: Discard();
in -> fw -> nat -> cls;
cls[0] -> t;
cls[1] -> drop;
t[0] -> p0 -> out0;
t[1] -> p1 -> out1;
`, strings.Join(rules, ", "), natTarget, port, 2000+rng.Intn(1000), 3000+rng.Intn(1000))
	reqPort, want, plat := port, Admitted, platform3
	if unsat {
		reqPort = port + 1 + rng.Intn(50)
		want, plat = RejectedPolicy, ""
	}
	return DeployCase{
		Req: api.DeployRequest{
			Tenant: tenant, ModuleName: name, Config: cfg, Trust: "client",
			Requirements: fmt.Sprintf("reach from internet udp dst port %d -> %s:out0:0 -> client", reqPort, name),
		},
		Want: want, WantPlatform: plat,
	}
}

// tunnelCase is a third-party decapsulating tunnel that re-sources
// traffic from its own address: admitted, but only inside a sandbox
// (Table 1), on the first platform.
func tunnelCase(rng *rand.Rand, tenant, name string) DeployCase {
	cfg := fmt.Sprintf(`
in :: FromNetfront();
f :: IPFilter(allow udp dst port %d, deny all);
dec :: IPDecap();
snat :: SetIPSrc($MODULE_IP);
out :: ToNetfront();
in -> f -> dec -> snat -> out;
`, 1000+rng.Intn(9000))
	return DeployCase{
		Req: api.DeployRequest{
			Tenant: tenant, ModuleName: name, Config: cfg, Trust: "third-party",
			Whitelist: []string{fmt.Sprintf("192.0.2.%d", 1+rng.Intn(250))},
		},
		Want: Sandboxed, WantPlatform: platform1,
	}
}

// spoofCase is a third-party module that forges its source address:
// the security check refuses it.
func spoofCase(rng *rand.Rand, tenant, name string) DeployCase {
	dst := fmt.Sprintf("192.0.2.%d", 1+rng.Intn(250))
	cfg := fmt.Sprintf(`
in :: FromNetfront();
sp :: SetIPSrc(203.0.113.%d);
fwd :: SetIPDst(%s);
out :: ToNetfront();
in -> sp -> fwd -> out;
`, 1+rng.Intn(250), dst)
	return DeployCase{
		Req: api.DeployRequest{
			Tenant: tenant, ModuleName: name, Config: cfg, Trust: "third-party",
			Whitelist: []string{dst},
		},
		Want: RejectedSecurity,
	}
}

// residentStocks are the stock modules deployed at set-up as the
// fixed hosted population every admission is verified against.
var residentStocks = []string{"geo-dns", "reverse-proxy", "explicit-proxy"}

// residentCount is the size of that population.
const residentCount = 12

// residentRequests returns the resident population's deploy requests.
func residentRequests() []api.DeployRequest {
	out := make([]api.DeployRequest, residentCount)
	for i := range out {
		out[i] = api.DeployRequest{
			Tenant:     fmt.Sprintf("resident-%d", i%4),
			ModuleName: fmt.Sprintf("resident-%02d", i),
			Stock:      residentStocks[i%len(residentStocks)],
			Trust:      "third-party",
		}
	}
	return out
}
