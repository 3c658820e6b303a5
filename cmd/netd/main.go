// Command netd is the long-running network daemon: it loads a Stateful
// NetKAT program, serves traffic through the live dataplane engine, and
// exposes a northbound HTTP/JSON API to reprogram the network *while it
// forwards* — the zero-downtime consistent hot-swap of internal/ctrl.
//
//	netd -app firewall -addr :8080 -workers 4
//
// API (all JSON):
//
//	GET  /healthz   liveness; 503 with a reason when the engine stopped
//	                or a swap has wedged past its drain timeout; active
//	                watchdog alerts ride along as degradation reasons
//	GET  /status    program, epoch, the last ctrl.SwapHistory (64) swap
//	                reports, engine snapshot
//	GET  /stats     engine counters, uptime, build and runtime info
//	GET  /metrics   Prometheus text exposition, including Go runtime
//	                metrics (see docs/OBSERVABILITY.md)
//	GET  /debug/flight
//	                flight-recorder dump: bounded full-fidelity recent
//	                history in deterministic order (see docs/OPS.md)
//	GET  /watch     live event feed: deliveries (sampled), detections,
//	                swap phases, stats deltas, journey traces. NDJSON by
//	                default; SSE with ?sse=1 or Accept: text/event-stream.
//	                ?kinds=swap,stats filters; ?buf=N sizes the
//	                subscriber buffer. A slow consumer never stalls the
//	                engine — overflow is dropped and counted, and the
//	                drop total rides on the periodic meta heartbeat.
//	POST /program   submit a program: {"app":"bandwidth-cap","cap":20}
//	                or {"name":"p2","source":"...","init":[0]}; compiles
//	                and stages it, returns its shape
//	POST /swap      hot-swap to the staged (or inline) program; returns
//	                the swap report once the old program has drained
//	POST /inject    {"host":"H1","fields":{"dst":104},"count":3}
//	POST /inject-batch
//	                {"packets":[{"host":"H1","fields":{"dst":104}},...]};
//	                the whole batch is admitted at one engine boundary,
//	                bad packets rejected by their index in "packets"
//	POST /quiesce   block until all queued traffic has drained
//
// The two inject bodies are read by a strict scanner, not a general JSON
// decoder. It accepts exactly: a packet object with the keys "host" (a
// string), "fields" (an object of string: integer) and "count" (an
// integer), or {"packets":[packet,...]}; keys in any order, each at
// most once, spelled exactly, all optional; strings without backslash
// escapes or control bytes, valid UTF-8, at most 64 bytes; integers as
// -?(0|[1-9][0-9]*) within int64; JSON whitespace between tokens and
// nothing after the value. Unknown keys, duplicate keys, null, escapes,
// fractions and exponents are a 400 ({"error":"bad request: offset N:
// ..."}). A request may expand to at most 65 536 packets (the sum of
// its counts) and name at most 256 distinct fields (400 past either).
// An unknown host or a field value outside int32 rejects that packet
// only: 400 on /inject; on /inject-batch the rest is admitted and the
// answer is {"injected":N,"rejected":[{"index":i,"error":"..."}]}, 400
// only when nothing was. count > 1 admits that many copies, numbered
// in field "id". See inject.go for the grammar and docs/OPS.md for the
// operator's view.
//
// Every POST body is limited to 1 MiB; a longer one is answered 413
// {"error":"request body exceeds 1048576 bytes","limit_bytes":1048576}.
// An inject request that would take the engine's ingress queue past
// 2^20 packets is refused whole: 429, Retry-After: 1, the error envelope.
//
// Programs submitted by name reuse the built-in applications; programs
// submitted as source are parsed over the daemon's topology. Successive
// revisions compile as deltas through the controller's cross-generation
// cache. SIGINT/SIGTERM shut down gracefully: the HTTP server stops
// accepting, open /watch streams receive a terminal {"kind":"shutdown"}
// event, in-flight requests finish, and the engine stops leak-free.
// SIGQUIT dumps the flight record to stderr and keeps serving.
// -debug-addr starts a second listener with net/http/pprof and expvar
// (kept off the public API address on purpose).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/obs"
	"eventnet/internal/stateful"
	"eventnet/internal/syntax"
	"eventnet/internal/topo"
)

// version is the build identity, overridable at link time:
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/netd
var version = "dev"

// statsSchemaVersion is bumped whenever the /stats shape changes.
const statsSchemaVersion = 2

// server is the northbound API over one controller.
type server struct {
	c     *ctrl.Controller
	obs   *obs.Obs // nil when observability is disabled
	start time.Time

	// watchBuf is the default per-subscriber event buffer of /watch;
	// heartbeat paces the keep-alive (and drop-total) meta events.
	watchBuf  int
	heartbeat time.Duration

	// shutdownCh is closed when graceful shutdown begins; every open
	// /watch stream writes a terminal {"kind":"shutdown"} event and
	// returns, so tailing clients see an explicit end-of-feed instead of
	// an unexplained EOF.
	shutdownCh   chan struct{}
	shutdownOnce sync.Once

	mu     sync.Mutex
	staged *stagedProgram
	nextID atomic.Int64 // auto-assigned packet ids for count-injections
}

// beginShutdown signals open /watch streams to terminate cleanly. Safe
// to call more than once; must be called before http.Server.Shutdown,
// which waits for those streams to finish.
func (s *server) beginShutdown() {
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
}

type stagedProgram struct {
	name string
	prog stateful.Program
}

// programRequest is the body of POST /program and POST /swap.
type programRequest struct {
	Name     string `json:"name"`
	App      string `json:"app"`
	Cap      int    `json:"cap"`
	Diameter int    `json:"diameter"`
	Cycles   int    `json:"cycles"` // fail/recover cycles for the failover apps
	Source   string `json:"source"`
	Init     []int  `json:"init"`
}

// httpError is the JSON error envelope.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func fail(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, httpError{Error: fmt.Sprintf(format, args...)})
}

// failBody answers a request whose body could not be read or decoded:
// the typed 413 when it ran past maxBodyBytes, a 400 otherwise.
func failBody(w http.ResponseWriter, err error) {
	if tooLarge(err) {
		writeRaw(w, http.StatusRequestEntityTooLarge, tooLargeBody)
		return
	}
	fail(w, http.StatusBadRequest, "bad request: %v", err)
}

// appByName resolves a built-in application, refusing size parameters
// past maxAppParam before building anything.
func appByName(req programRequest) (apps.App, error) {
	for _, p := range [...]struct {
		name string
		v    int
	}{{"cap", req.Cap}, {"diameter", req.Diameter}, {"cycles", req.Cycles}} {
		if p.v < 0 || p.v > maxAppParam {
			return apps.App{}, fmt.Errorf("%s %d outside [0, %d]", p.name, p.v, maxAppParam)
		}
	}
	return apps.ByName(req.App, apps.Params{Cap: req.Cap, Diameter: req.Diameter, Cycles: req.Cycles})
}

// topoKey fingerprints a topology for compatibility checks: programs can
// only be swapped onto the network they were written for.
func topoKey(t *topo.Topology) string {
	return fmt.Sprintf("%v|%v|%v", t.Switches, t.Hosts, t.Links)
}

// resolve turns a program request into a named program over the daemon's
// topology.
func (s *server) resolve(req programRequest) (string, stateful.Program, error) {
	switch {
	case req.App != "":
		a, err := appByName(req)
		if err != nil {
			return "", stateful.Program{}, err
		}
		if topoKey(a.Topo) != topoKey(s.c.Topology()) {
			return "", stateful.Program{}, fmt.Errorf("app %s runs on a different topology than this daemon", a.Name)
		}
		name := req.Name
		if name == "" {
			name = a.Name
		}
		return name, a.Prog, nil
	case req.Source != "":
		prog, err := syntax.ParseProgram(req.Source, req.Init)
		if err != nil {
			return "", stateful.Program{}, fmt.Errorf("parsing program: %w", err)
		}
		name := req.Name
		if name == "" {
			name = "submitted"
		}
		return name, prog, nil
	}
	return "", stateful.Program{}, fmt.Errorf("one of \"app\" or \"source\" is required")
}

func (s *server) handleProgram(w http.ResponseWriter, r *http.Request) {
	var req programRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		failBody(w, err)
		return
	}
	name, prog, err := s.resolve(req)
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Compile now: submission validates the program and memoizes its
	// generation, so the later swap is a memo hit that compiles nothing.
	p, err := s.c.Compile(name, prog)
	if err != nil {
		fail(w, rejected(err, http.StatusUnprocessableEntity), "%v", err)
		return
	}
	s.mu.Lock()
	s.staged = &stagedProgram{name: name, prog: prog}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"staged":     name,
		"states":     len(p.NES.Configs),
		"events":     len(p.NES.Events),
		"rules":      p.NES.TotalRules(),
		"compile_ms": float64(p.Compile.Microseconds()) / 1000,
	})
}

// rejected is the status of a failed compile or swap: 400 for a program
// the engine can never install, otherwise the handler's own code.
func rejected(err error, code int) int {
	if errors.Is(err, dataplane.ErrFieldLimit) {
		return http.StatusBadRequest
	}
	return code
}

func (s *server) handleSwap(w http.ResponseWriter, r *http.Request) {
	var req programRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			failBody(w, err)
			return
		}
	}
	var name string
	var prog stateful.Program
	var st *stagedProgram
	fromStaged := req.App == "" && req.Source == ""
	if fromStaged {
		if st = s.stagedNow(); st == nil {
			fail(w, http.StatusBadRequest, "no staged program; POST /program first or inline one")
			return
		}
		name, prog = st.name, st.prog
	} else {
		var err error
		if name, prog, err = s.resolve(req); err != nil {
			fail(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	rep, err := s.c.Swap(name, prog)
	if err != nil {
		// The staged program is kept: a failed swap (e.g. one already in
		// progress) must not force the client to resubmit.
		fail(w, rejected(err, http.StatusConflict), "%v", err)
		return
	}
	if fromStaged {
		s.consumeStaged(st) // on success only
	}
	writeJSON(w, http.StatusOK, rep)
}

// stagedNow returns the program a bare /swap would install, or nil.
func (s *server) stagedNow() *stagedProgram {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.staged
}

// consumeStaged clears the staged program if it is still st. A program
// staged while st's swap ran survives, even under the same name (every
// source submission defaults to "submitted"), for its own /swap.
func (s *server) consumeStaged(st *stagedProgram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staged == st {
		s.staged = nil
	}
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.c.Status())
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.c.Status()
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": statsSchemaVersion,
		"version":        version,
		"go_version":     runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"num_cpu":        runtime.NumCPU(),
		"uptime_s":       time.Since(s.start).Seconds(),
		"program":        st.Program,
		"epoch":          st.Epoch,
		"swapping":       st.Swapping,
		"generation":     st.Engine.Generation,
		"processed":      st.Engine.Processed,
		"deliveries":     st.Engine.Deliveries,
		"ttl_dropped":    st.Engine.TTLDropped,
		"pending":        st.Engine.Pending,
		"switches":       st.Engine.Switches,
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ok, reason := s.c.Health()
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	// Watchdog alerts are degradation, not death: the daemon stays 200
	// (it is alive and forwarding) but reports why it is unhappy, so a
	// probe that wants to alert on degraded can read "degraded".
	alerts := s.c.Alerts()
	resp := map[string]any{"ok": ok, "reason": reason, "degraded": len(alerts) > 0}
	if len(alerts) > 0 {
		resp["alerts"] = alerts
	}
	writeJSON(w, code, resp)
}

// handleFlight serves the flight-recorder dump: the bounded recent
// history of deliveries, detections, swap phases and boundary stats, in
// canonical deterministic order. The dump runs at an engine barrier, so
// it is a consistent snapshot, and it does not consume the ring.
func (s *server) handleFlight(w http.ResponseWriter, r *http.Request) {
	d := s.c.FlightDump()
	if d == nil {
		fail(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// handleMetrics serves the Prometheus text exposition. The watch gauges
// are refreshed here — scrape time — rather than on the engine's hot
// path.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil || s.obs.Metrics == nil {
		fail(w, http.StatusNotFound, "observability disabled")
		return
	}
	if b := s.obs.Bus; b != nil {
		s.obs.Metrics.SetGauge(obs.GaugeWatchSubscribers, int64(b.Subscribers()))
		s.obs.Metrics.SetGauge(obs.GaugeWatchDropped, b.Dropped())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.Metrics.WritePrometheus(w)
	// Go runtime health (GC pause, scheduler latency, heap) rides on the
	// same exposition so one scrape covers engine and runtime.
	if err := obs.WriteRuntimeMetrics(w); err != nil {
		log.Printf("netd: runtime metrics: %v", err)
	}
}

// handleWatch streams the live event feed. Backpressure is strictly
// bounded: the subscription buffer absorbs bursts, overflow is dropped
// and counted on the bus side (never blocking a barrier), and the
// writer below is the only place that ever waits on the client.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil || s.obs.Bus == nil {
		fail(w, http.StatusNotFound, "observability disabled")
		return
	}
	buf := s.watchBuf
	if v, err := strconv.Atoi(r.URL.Query().Get("buf")); err == nil && v > 0 && v <= 1<<16 {
		buf = v
	}
	var kinds []string
	if ks := r.URL.Query().Get("kinds"); ks != "" {
		kinds = strings.Split(ks, ",")
	}
	sse := r.URL.Query().Get("sse") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	flusher, canFlush := w.(http.Flusher)

	sub := s.obs.Bus.Subscribe(buf, kinds...)
	defer sub.Close()
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	if canFlush {
		flusher.Flush()
	}

	enc := json.NewEncoder(w)
	write := func(ev obs.Event) bool {
		if sse {
			if _, err := fmt.Fprintf(w, "event: %s\ndata: ", ev.Kind); err != nil {
				return false
			}
		}
		if err := enc.Encode(ev); err != nil { // Encode appends the newline
			return false
		}
		if sse {
			if _, err := fmt.Fprint(w, "\n"); err != nil {
				return false
			}
		}
		if canFlush {
			flusher.Flush()
		}
		return true
	}

	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.shutdownCh:
			// Graceful shutdown: drain whatever is already buffered, then
			// say goodbye explicitly so the client can distinguish a clean
			// stop from a crash.
			for {
				select {
				case ev := <-sub.C:
					if !write(ev) {
						return
					}
				default:
					write(obs.Event{Kind: obs.KindShutdown, Note: "server shutting down", Dropped: sub.Dropped()})
					return
				}
			}
		case ev := <-sub.C:
			if !write(ev) {
				return
			}
		case <-hb.C:
			// The heartbeat doubles as the drop-count surface: a consumer
			// too slow for its buffer learns exactly how much it missed.
			if !write(obs.Event{Kind: obs.KindMeta, Note: "heartbeat", Dropped: sub.Dropped()}) {
				return
			}
		}
	}
}

func (s *server) handleQuiesce(w http.ResponseWriter, r *http.Request) {
	if eng := s.c.Engine(); eng != nil {
		eng.Quiesce()
	}
	writeJSON(w, http.StatusOK, map[string]any{"quiesced": true})
}

// newServer wires the API routes (split out for the smoke test). o is
// the observability layer the controller was built with; nil disables
// /metrics and /watch.
func newServer(c *ctrl.Controller, o *obs.Obs) (*server, http.Handler) {
	s := &server{
		c: c, obs: o, start: time.Now(),
		watchBuf: 256, heartbeat: 15 * time.Second,
		shutdownCh: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /watch", s.handleWatch)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	mux.HandleFunc("POST /program", limitBody(s.handleProgram))
	mux.HandleFunc("POST /swap", limitBody(s.handleSwap))
	mux.HandleFunc("POST /inject", limitBody(s.handleInject))
	mux.HandleFunc("POST /inject-batch", limitBody(s.handleInjectBatch))
	mux.HandleFunc("POST /quiesce", limitBody(s.handleQuiesce))
	return s, mux
}

func main() {
	appName := flag.String("app", "firewall", "initial application (firewall, learning-switch, authentication, bandwidth-cap, ids, walled-garden, distributed-firewall, ring, ids-fattree, failover-diamond, failover-wan, failover-fattree)")
	capN := flag.Int("cap", 10, "bandwidth cap n (for -app bandwidth-cap)")
	diameter := flag.Int("diameter", 3, "ring diameter (for -app ring)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "forwarding workers")
	traceSample := flag.Int("trace-sample", 64, "trace every Nth injected packet (0 disables journey tracing)")
	deliverySample := flag.Int("delivery-sample", 16, "publish every Nth delivery on /watch (0 disables the delivery feed)")
	watchBuf := flag.Int("watch-buf", 256, "default per-subscriber /watch event buffer")
	flightCap := flag.Int("flight-cap", obs.DefaultFlightCap, "flight-recorder records per worker; the one ring holds one more share for swap and stats records (0 uses the default)")
	debugAddr := flag.String("debug-addr", "", "listen address for the pprof/expvar debug server (empty disables it)")
	flag.Parse()

	a, err := appByName(programRequest{App: *appName, Cap: *capN, Diameter: *diameter})
	if err != nil {
		log.Fatalf("netd: %v", err)
	}

	// The daemon always runs with full observability: the hot path is
	// zero-alloc with metrics on (CI-pinned), so there is nothing to gain
	// from a switch.
	o := &obs.Obs{
		Metrics:        obs.NewMetrics(*workers),
		Bus:            obs.NewBus(),
		Flight:         obs.NewFlight(*flightCap, *workers),
		Watch:          obs.NewWatchdog(),
		DeliverySample: *deliverySample,
	}
	if *traceSample > 0 {
		o.Trace = obs.NewTracer(*traceSample, *workers)
	}

	// Bound the delivery log: a daemon must not retain every packet it
	// ever delivered. A wedged swap dumps the flight record to stderr
	// automatically so the stuck drain can be diagnosed post hoc.
	c := ctrl.New(a.Topo, ctrl.Options{
		Workers: *workers, DeliveryLog: 1 << 16, Obs: o,
		OnWedgeDump: func(d *obs.FlightDump) {
			if d == nil {
				return
			}
			b, err := json.Marshal(d)
			if err != nil {
				log.Printf("netd: wedge flight dump: %v", err)
				return
			}
			log.Printf("netd: swap wedged; flight dump (%d records): %s", len(d.Records), b)
		},
	})
	if err := c.Load(a.Name, a.Prog); err != nil {
		log.Fatalf("netd: loading %s: %v", a.Name, err)
	}
	s, handler := newServer(c, o)
	s.watchBuf = *watchBuf
	srv := &http.Server{Addr: *addr, Handler: handler}

	go func() {
		log.Printf("netd: %s serving %s on %s (%d workers)", version, a.Name, *addr, *workers)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("netd: %v", err)
		}
	}()

	if *debugAddr != "" {
		// pprof and expvar live on their own listener so profiling access
		// can be firewalled separately from the public API. The handlers
		// are registered explicitly: the side-effect registration of
		// net/http/pprof only reaches http.DefaultServeMux.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		go func() {
			log.Printf("netd: debug server (pprof, expvar) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil && err != http.ErrServerClosed {
				log.Printf("netd: debug server: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	for got := range sig {
		if got == syscall.SIGQUIT {
			// Operator snapshot: dump the flight record and keep serving.
			// (Notify on SIGQUIT replaces the runtime's stack-dump-and-die
			// default, which is exactly the point.)
			if d := c.FlightDump(); d != nil {
				if b, err := json.Marshal(d); err == nil {
					log.Printf("netd: SIGQUIT flight dump (%d records): %s", len(d.Records), b)
				}
			}
			continue
		}
		break
	}
	log.Printf("netd: shutting down")
	s.beginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("netd: shutdown: %v", err)
	}
	c.Close()
}
