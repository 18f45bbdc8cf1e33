package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"glade/internal/cfg"
	"glade/internal/cluster"
	"glade/internal/oracle"
	"glade/internal/service"
)

// The serve workload: three in-process glade-serve nodes, each behind a
// cluster.Router over one ring, wired as glade-serve -peers wires them.
// Two closed-loop clients (callers such as fuzz harnesses and CI jobs wait
// for each verdict), one per core, each keep one keep-alive connection to
// their own entry node, so two of every three requests take a proxy hop.
// The sed grammar is decided by the Earley rung and sets the slow end of
// the latency distribution; xml and json are decided cheaply, so HTTP, the
// router and the store set the median.
const (
	serveRate      = 1800.0 // requests per second of --seconds, both clients together
	serveClients   = 2
	serveBatch     = 32 // inputs per check request
	serveGenerateN = 10 // inputs per generate request
	serveBatches   = 64 // distinct check batches per grammar
)

// serveSpecs are the served grammars' oracles; grammar j is stored on node j.
var serveSpecs = []oracle.Spec{
	{Type: oracle.SpecProgram, Name: "sed"},
	{Type: oracle.SpecBuiltin, Name: "xml"},
	{Type: oracle.SpecBuiltin, Name: "json"},
}

// serveNode is one in-process glade-serve node.
type serveNode struct {
	srv  *service.Server
	http *http.Server
	addr string
	done chan struct{}
}

// serveGrammar is one stored grammar with its seeded check batches.
type serveGrammar struct {
	name     string
	id       string
	digest   string
	compiled *cfg.Compiled
	batches  [][]string
	bodies   [][]byte
	want     [][]bool // AcceptsEarley on every batch input
}

// serveReq is one request of a client's fixed sequence.
type serveReq struct {
	grammar int
	check   bool
	batch   int
}

// serveState is the serve workload after setup.
type serveState struct {
	nodes    []*serveNode
	grammars []*serveGrammar
	seqs     [][]serveReq
	clients  []*http.Client
	// trace receives the router and service spans of every node; the
	// middleware is installed only in traced runs.
	trace traceSwitch
}

func (st *serveState) close() {
	for _, c := range st.clients {
		c.CloseIdleConnections()
	}
	for _, n := range st.nodes {
		n.http.Close()
		<-n.done
		n.srv.Close()
	}
}

// serveSequences draws each client's request sequence: blocks of twelve
// requests holding every grammar four times, three checks and one generate
// each, in seed-shuffled order, so the 3:1 mix and the 2/3 proxied share
// hold exactly.
func serveSequences(seed int64, perClient int) [][]serveReq {
	seqs := make([][]serveReq, serveClients)
	for c := range seqs {
		rng := rngFor(seed, "serve-seq", c)
		for len(seqs[c]) < perClient {
			block := make([]serveReq, 0, 12)
			for g := range serveSpecs {
				for k := 0; k < 4; k++ {
					block = append(block, serveReq{grammar: g, check: k < 3, batch: rng.Intn(serveBatches)})
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			seqs[c] = append(seqs[c], block...)
		}
		seqs[c] = seqs[c][:perClient]
	}
	return seqs
}

// serveBatchesFor samples a grammar's check batches: inputs drawn from the
// grammar with a seeded rng, half of them mutated into near-misses so that
// every rung of the ladder decides some inputs.
func serveBatchesFor(seed int64, g *serveGrammar) error {
	rng := rngFor(seed, "serve-batch:"+g.name, 0)
	for b := 0; b < serveBatches; b++ {
		batch := make([]string, serveBatch)
		want := make([]bool, serveBatch)
		for i := range batch {
			in := g.compiled.Sample(rng)
			if i%2 == 1 {
				in = mutate(rng, in)
			}
			batch[i] = in
			want[i] = g.compiled.AcceptsEarley(in)
		}
		body, err := json.Marshal(map[string][]string{"inputs": batch})
		if err != nil {
			return err
		}
		g.batches = append(g.batches, batch)
		g.bodies = append(g.bodies, body)
		g.want = append(g.want, want)
	}
	return nil
}

func newServeState(ctx context.Context, rc runConfig, rep, perClient int, traced bool) (*serveState, error) {
	st := &serveState{}
	// Listeners first: ring membership is the nodes' addresses. Until a
	// node serves its listener, closing the listener is the cleanup.
	lns := make([]net.Listener, 0, len(serveSpecs))
	ready := false
	defer func() {
		if !ready {
			for _, ln := range lns[len(st.nodes):] {
				ln.Close()
			}
			st.close()
		}
	}()
	peers := make([]string, len(serveSpecs))
	for i := range serveSpecs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		peers[i] = ln.Addr().String()
	}
	ring, err := cluster.NewRing(peers, 0)
	if err != nil {
		return nil, err
	}
	quiet := slog.New(slog.DiscardHandler)
	for i, ln := range lns {
		srv, err := service.New(service.Config{
			DataDir: filepath.Join(rc.dir, fmt.Sprintf("serve%d-node%d", rep, i)),
			Logger:  quiet,
		})
		if err != nil {
			return nil, err
		}
		// The prober is never started: every peer stays healthy, and setup
		// never waits on a probe tick.
		prober := cluster.NewProber(peers[i], ring.Peers(), 0, quiet)
		var local http.Handler = srv.Handler()
		if traced {
			local = st.trace.layer("service", i, local)
		}
		router, err := cluster.NewRouter(peers[i], ring, prober, local, quiet)
		if err != nil {
			srv.Close()
			return nil, err
		}
		var front http.Handler = router
		if traced {
			front = st.trace.layer("router", i, front)
		}
		n := &serveNode{srv: srv, addr: peers[i], done: make(chan struct{}),
			http: &http.Server{Handler: front, ReadHeaderTimeout: 10 * time.Second}}
		go func() {
			defer close(n.done)
			if err := n.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				slog.Error("perfbench: serve node", "err", err)
			}
		}()
		st.nodes = append(st.nodes, n)
	}

	// Learn the three grammars and store grammar j on node j under the
	// first seed-drawn id node j owns.
	k := 0
	for j, spec := range serveSpecs {
		res, seeds, err := learnProgram(ctx, spec)
		if err != nil {
			return nil, err
		}
		var id string
		for ; id == ""; k++ {
			if cand := seedID(rc.seed, "serve", k); ring.Owners(cand, 1)[0] == peers[j] {
				id = cand
			}
		}
		meta := service.GrammarMeta{ID: id, Oracle: spec.String(), Spec: spec, Seeds: seeds, Queries: res.Stats.OracleQueries}
		if err := st.nodes[j].srv.Store().Put(res.Grammar, meta); err != nil {
			return nil, err
		}
		g := &serveGrammar{name: spec.Name, id: id, digest: digest(res.Grammar), compiled: cfg.Compile(res.Grammar)}
		if err := serveBatchesFor(rc.seed, g); err != nil {
			return nil, err
		}
		st.grammars = append(st.grammars, g)
	}
	st.seqs = serveSequences(rc.seed, perClient)

	// One keep-alive connection per client, to its own entry node; the
	// first requests to every grammar fill its caches before timing.
	for c := 0; c < serveClients; c++ {
		cl := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		st.clients = append(st.clients, cl)
		for g := range st.grammars {
			for _, check := range []bool{true, false} {
				if _, err := st.do(ctx, c, serveReq{grammar: g, check: check}, ""); err != nil {
					return nil, fmt.Errorf("warm-up request: %w", err)
				}
			}
		}
	}
	ready = true
	return st, nil
}

// serveReply is one response body, decoded after the latency is taken.
type serveReply struct {
	Verdicts []bool   `json:"verdicts"`
	Inputs   []string `json:"inputs"`
}

// do issues one request from client c to its entry node and returns the
// decoded reply. A non-2xx status is an error.
func (st *serveState) do(ctx context.Context, c int, rq serveReq, reqID string) (*serveReply, error) {
	g := st.grammars[rq.grammar]
	url := "http://" + st.nodes[c].addr + "/v1/grammars/" + g.id
	var body io.Reader
	if rq.check {
		url += "/check"
		body = bytes.NewReader(g.bodies[rq.batch])
	} else {
		url += fmt.Sprintf("/generate?n=%d", serveGenerateN)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	if reqID != "" {
		req.Header.Set(requestIDHeader, reqID)
	}
	resp, err := st.clients[c].Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	var rep serveReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return &rep, nil
}

// serveResult is one client's view of a pass.
type serveResult struct {
	latMS     []float64
	generated [][]string // per grammar
	err       error      // first failed output check
}

// pass runs every client's sequence concurrently, each in a closed loop.
// The reply's decode is inside the latency; its checks against the
// precomputed Earley verdicts are not.
func (st *serveState) pass(ctx context.Context, seqs [][]serveReq) ([]serveResult, time.Duration) {
	res := make([]serveResult, len(seqs))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			r.generated = make([][]string, len(st.grammars))
			for k, rq := range seqs[c] {
				t0 := time.Now()
				rep, err := st.do(ctx, c, rq, fmt.Sprintf("c%d-%d", c, k))
				lat := ms(time.Since(t0))
				if err != nil {
					lat = math.Inf(1)
					if r.err == nil {
						r.err = err
					}
				} else if err := st.checkReply(rq, rep); err != nil && r.err == nil {
					r.err = err
				}
				r.latMS = append(r.latMS, lat)
				if err == nil && !rq.check {
					r.generated[rq.grammar] = append(r.generated[rq.grammar], rep.Inputs...)
				}
			}
		}(c)
	}
	wg.Wait()
	return res, time.Since(start)
}

// checkReply compares a check reply with the Earley verdicts.
func (st *serveState) checkReply(rq serveReq, rep *serveReply) error {
	g := st.grammars[rq.grammar]
	if !rq.check {
		if len(rep.Inputs) != serveGenerateN {
			return fmt.Errorf("generate %s: got %d inputs, want %d", g.name, len(rep.Inputs), serveGenerateN)
		}
		return nil
	}
	want := g.want[rq.batch]
	if len(rep.Verdicts) != len(want) {
		return fmt.Errorf("check %s: got %d verdicts, want %d", g.name, len(rep.Verdicts), len(want))
	}
	for i, v := range rep.Verdicts {
		if v != want[i] {
			return fmt.Errorf("check %s: verdict %v on %q, AcceptsEarley says %v", g.name, v, quoteShort(g.batches[rq.batch][i]), want[i])
		}
	}
	return nil
}

// summary merges the clients' latencies and checks every generated input
// against the grammar it came from.
func (st *serveState) summary(res []serveResult) (latMS []float64, err error) {
	for _, r := range res {
		latMS = append(latMS, r.latMS...)
		if r.err != nil && err == nil {
			err = r.err
		}
		for gi, ins := range r.generated {
			for _, in := range ins {
				if !st.grammars[gi].compiled.AcceptsEarley(in) && err == nil {
					err = fmt.Errorf("generate %s: %q is not in the grammar's language", st.grammars[gi].name, quoteShort(in))
				}
			}
		}
	}
	return latMS, err
}

func runServe(ctx context.Context, rc runConfig) (*result, error) {
	perClient := rc.opCount(serveRate) / serveClients
	rep := 0
	st, setup, err := repeatSetup(func() (*serveState, error) {
		rep++
		return newServeState(ctx, rc, rep, perClient, rc.trace)
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	// A check answers serveBatch membership queries on the ladder, a
	// generate none.
	queriesPerReq := float64(serveBatch) * 3 / 4
	if !rc.trace {
		res, elapsed := st.pass(ctx, st.seqs)
		latMS, cerr := st.summary(res)
		return finish(rc, latMS, cerr, endToEnd(setup, latMS, elapsed, float64(len(latMS)), queriesPerReq)), nil
	}

	half := make([][]serveReq, len(st.seqs))
	for c, s := range st.seqs {
		half[c] = s[:(len(s)+1)/2]
	}
	h0 := readHeap()
	plain, plainElapsed := st.pass(ctx, half)
	h1 := readHeap()
	t := newTracer()
	st.trace.t.Store(t)
	res, elapsed := st.pass(ctx, half)
	st.trace.t.Store(nil)
	latMS, cerr := st.summary(res)
	if _, perr := st.summary(plain); perr != nil && cerr == nil {
		cerr = perr
	}
	layers := st.layers(t, half)
	layers["runtime.alloc_mb_per_op"], layers["runtime.gc_per_op"] = runtimePerOp(h0, h1, len(latMS))
	layers["trace.overhead_pct"] = overheadPct(plainElapsed, elapsed)
	if err := t.write(traceDir, traceFile(rc)); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return finish(rc, latMS, cerr, layerMetrics(layers)), nil
}

// layers derives the serve per-layer metrics from the traced pass's spans
// and from replays of the same batches through the compiled ladder.
func (st *serveState) layers(t *tracer, seqs [][]serveReq) map[string]float64 {
	byID := map[string][]span{}
	for _, s := range t.spans {
		byID[s.ID] = append(byID[s.ID], s)
	}
	ladder := st.replayLadder(seqs)
	var checkMS, checkOverMS, genMS, hopMS []float64
	proxied, total := 0, 0
	for c, seq := range seqs {
		for k, rq := range seq {
			spans := byID[fmt.Sprintf("c%d-%d", c, k)]
			var routers []span
			var svc *span
			for i := range spans {
				switch spans[i].Name {
				case "router":
					routers = append(routers, spans[i])
				case "service":
					svc = &spans[i]
				}
			}
			if svc == nil || len(routers) == 0 {
				continue
			}
			total++
			if len(routers) == 2 {
				proxied++
				entry, owner := routers[0], routers[1]
				if owner.dur() > entry.dur() {
					entry, owner = owner, entry
				}
				hopMS = append(hopMS, ms(entry.dur()-owner.dur()))
			}
			if rq.check {
				checkMS = append(checkMS, ms(svc.dur()))
				checkOverMS = append(checkOverMS, ms(svc.dur()-ladder.batch[rq.grammar][rq.batch]))
			} else {
				genMS = append(genMS, ms(svc.dur()))
			}
		}
	}
	out := map[string]float64{
		"service.check_ms":          mean(checkMS),
		"service.check_overhead_ms": mean(checkOverMS),
		"service.generate_ms":       mean(genMS),
		"service.store_lookup_ns":   st.storeLookupNS(),
		"cluster.proxied_share":     float64(proxied) / float64(max(total, 1)),
		"cluster.hop_ms":            mean(hopMS),
	}
	for gi, g := range st.grammars {
		out["cfg.ladder_us_per_input."+g.name] = ladder.usPerInput[gi]
		out["cfg.dfa_share."+g.name] = ladder.dfaShare[gi]
		out["cfg.earley_share."+g.name] = ladder.earleyShare[gi]
	}
	return out
}

// ladderReplay holds the ladder's cost on the batches a pass sent.
type ladderReplay struct {
	batch       [][]time.Duration // per grammar, per batch: AcceptsAll as the handler runs it
	usPerInput  []float64
	dfaShare    []float64
	earleyShare []float64
}

// replayLadder times every batch through cfg.Compiled outside the server:
// AcceptsAll with the check handler's worker count (for the handler's
// overhead), and AcceptsRung per input (for per-rung shares), weighting
// each batch by how often the pass sent it.
func (st *serveState) replayLadder(seqs [][]serveReq) ladderReplay {
	const reps = 5
	uses := make([][]int, len(st.grammars))
	for gi := range uses {
		uses[gi] = make([]int, serveBatches)
	}
	for _, seq := range seqs {
		for _, rq := range seq {
			if rq.check {
				uses[rq.grammar][rq.batch]++
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), serveBatch/16)
	lr := ladderReplay{}
	for gi, g := range st.grammars {
		per := make([]time.Duration, serveBatches)
		var rungTime time.Duration
		var inputs, dfa, earley float64
		for b, batch := range g.batches {
			samples := make([]float64, reps)
			for r := range samples {
				t0 := time.Now()
				g.compiled.AcceptsAll(batch, workers)
				samples[r] = float64(time.Since(t0))
			}
			per[b] = time.Duration(median(samples))
			if uses[gi][b] == 0 {
				continue
			}
			w := float64(uses[gi][b])
			t0 := time.Now()
			for _, in := range batch {
				_, rung := g.compiled.AcceptsRung(in)
				switch rung {
				case cfg.RungDFA:
					dfa += w
				case cfg.RungEarley:
					earley += w
				}
			}
			rungTime += time.Duration(w * float64(time.Since(t0)))
			inputs += w * float64(len(batch))
		}
		lr.batch = append(lr.batch, per)
		lr.usPerInput = append(lr.usPerInput, float64(rungTime)/float64(time.Microsecond)/max(inputs, 1))
		lr.dfaShare = append(lr.dfaShare, dfa/max(inputs, 1))
		lr.earleyShare = append(lr.earleyShare, earley/max(inputs, 1))
	}
	return lr
}

// storeLookupNS times Store.Compiled on grammars already in the cache.
func (st *serveState) storeLookupNS() float64 {
	const calls = 1 << 16
	var total time.Duration
	for j, g := range st.grammars {
		store := st.nodes[j].srv.Store()
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			if _, err := store.Compiled(g.id); err != nil {
				return math.NaN()
			}
		}
		total += time.Since(t0)
	}
	return float64(total) / float64(calls*len(st.grammars))
}
