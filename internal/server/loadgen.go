// The embedded load generator: clients driving the wire protocol with the
// YCSB key and operation distributions of internal/bench, measuring
// throughput and an HDR-style latency histogram per request. It exists so
// the server can be exercised and measured with the same workload
// vocabulary — and land in the same BenchDoc JSON schema — as the
// in-process harness.
//
// Two load modes:
//
//   - Closed loop (Rate == 0): each connection keeps Pipeline requests in
//     flight and issues the next the moment a reply frees a slot. This
//     measures capacity — the server sets the pace — but its latency
//     numbers suffer coordinated omission: when the server stalls, the
//     generator stops sending, so the stall is sampled once instead of
//     once per request that would have arrived.
//   - Open loop (Rate > 0): requests are scheduled on an arrival process
//     (fixed-rate or Poisson) that does not react to the server, and each
//     latency is measured from the request's *intended* send time. A
//     server stall makes every queued-behind-it request slow, which is
//     what a real client population would experience. This is the mode
//     tail percentiles are quoted from.
package server

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/store"
)

// LoadConfig configures RunLoad.
type LoadConfig struct {
	// Addr is the server address ("unix:/path", "tcp:host:port", "host:port").
	Addr string
	// Conns is the number of concurrent connections (default 4).
	Conns int
	// Pipeline is the number of requests each connection keeps in flight
	// (default 16; 1 = strict request/response).
	Pipeline int
	// Ops is the total operation budget across connections; 0 runs for
	// Duration instead.
	Ops uint64
	// Duration bounds the run when Ops is 0 (default 1s).
	Duration time.Duration
	// Workload is a YCSB workload letter (see bench.Workloads; default A).
	Workload string
	// Range is the key range (default 1<<16).
	Range uint64
	// Theta overrides the workload's Zipf skew when > 0.
	Theta float64
	// Prefill inserts every other key of [1, Range] before measuring.
	Prefill bool
	// Seed perturbs the per-connection RNGs.
	Seed int64
	// Rate, when > 0, switches to open-loop load: requests are scheduled
	// at Rate ops/sec across all connections regardless of how fast the
	// server answers, and latency is measured from each request's intended
	// send time (no coordinated omission).
	Rate float64
	// Poisson randomizes open-loop interarrival times (exponential with
	// mean 1/rate) instead of a fixed period. Ignored in closed loop.
	Poisson bool
	// Binary drives the length-prefixed binary frame protocol instead of
	// the text protocol.
	Binary bool
}

// LoadResult is one load run's outcome.
type LoadResult struct {
	Ops       uint64
	Errors    uint64
	Elapsed   time.Duration
	OpsPerSec float64
	// Offered is the achieved send rate of an open-loop run (0 in closed
	// loop). When it falls visibly below LoadConfig.Rate the generator
	// could not hold the schedule and the run is past saturation.
	Offered float64
	Lat     *bench.Histogram
}

// String renders the result for humans.
func (r LoadResult) String() string {
	if r.Offered > 0 {
		return fmt.Sprintf("%d ops in %v  %.0f ops/s (offered %.0f)  %d errors\n%s",
			r.Ops, r.Elapsed.Round(time.Millisecond), r.OpsPerSec, r.Offered, r.Errors, r.Lat.Summary())
	}
	return fmt.Sprintf("%d ops in %v  %.0f ops/s  %d errors\n%s",
		r.Ops, r.Elapsed.Round(time.Millisecond), r.OpsPerSec, r.Errors, r.Lat.Summary())
}

// RunLoad drives the server at cfg.Addr. Every connection runs the same
// closed-loop: keep Pipeline requests outstanding, read replies in order,
// and record client-perceived latency (send enqueue to reply) per request.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 16
	}
	if cfg.Range == 0 {
		cfg.Range = 1 << 16
	}
	if cfg.Workload == "" {
		cfg.Workload = "A"
	}
	if cfg.Ops == 0 && cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	wl, ok := bench.WorkloadByName(cfg.Workload)
	if !ok {
		return LoadResult{}, fmt.Errorf("server: unknown YCSB workload %q", cfg.Workload)
	}
	if cfg.Theta > 0 {
		wl.Theta = cfg.Theta
	}

	if cfg.Prefill {
		if err := prefillWire(cfg); err != nil {
			return LoadResult{}, fmt.Errorf("server: prefill: %w", err)
		}
	}

	var (
		latest  atomic.Uint64 // newest inserted key (workload D reads, inserts)
		total   atomic.Uint64
		errs    atomic.Uint64
		sent    atomic.Uint64
		firstMu sync.Mutex
		firstEr error
	)
	latest.Store(cfg.Range)
	perConn := cfg.Ops / uint64(cfg.Conns)
	if cfg.Ops > 0 && perConn == 0 {
		perConn = 1
	}
	// Dial every connection before starting the clock: connection setup is
	// not part of the measurement window, and a duration-mode run must not
	// spend its budget on dialing (tiny smoke durations would otherwise
	// measure zero ops on a slow machine).
	clients := make([]*Client, cfg.Conns)
	for ci := range clients {
		cl, err := dialLoad(cfg)
		if err != nil {
			for _, c := range clients[:ci] {
				c.Close()
			}
			return LoadResult{}, err
		}
		clients[ci] = cl
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	deadline := time.Time{}
	if cfg.Ops == 0 {
		deadline = time.Now().Add(cfg.Duration)
	}
	hists := make([]*bench.Histogram, cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < cfg.Conns; ci++ {
		hists[ci] = &bench.Histogram{}
		wg.Add(1)
		go func(ci int, h *bench.Histogram) {
			defer wg.Done()
			var ops, errors, issued uint64
			var err error
			if cfg.Rate > 0 {
				ops, errors, issued, err = loadConnOpen(cfg, wl, ci, clients[ci], perConn, deadline, &latest, h)
			} else {
				ops, errors, err = loadConn(cfg, wl, ci, clients[ci], perConn, deadline, &latest, h)
			}
			total.Add(ops)
			errs.Add(errors)
			sent.Add(issued)
			if err != nil {
				firstMu.Lock()
				if firstEr == nil {
					firstEr = err
				}
				firstMu.Unlock()
			}
		}(ci, hists[ci])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstEr != nil {
		return LoadResult{}, firstEr
	}
	lat := &bench.Histogram{}
	for _, h := range hists {
		lat.Merge(h)
	}
	res := LoadResult{
		Ops:       total.Load(),
		Errors:    errs.Load(),
		Elapsed:   elapsed,
		OpsPerSec: float64(total.Load()) / elapsed.Seconds(),
		Lat:       lat,
	}
	if cfg.Rate > 0 {
		res.Offered = float64(sent.Load()) / elapsed.Seconds()
	}
	return res, nil
}

// splitmix is the per-connection RNG (same generator as pmem.Thread.Rand).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// dialLoad opens one load connection in the configured protocol.
func dialLoad(cfg LoadConfig) (*Client, error) {
	if cfg.Binary {
		return DialBin(cfg.Addr)
	}
	return Dial(cfg.Addr)
}

// opSender builds the per-connection workload closure: each call queues one
// random operation on cl. The reply kinds all fold into the same error
// accounting, so callers only track send timestamps.
func opSender(cfg LoadConfig, wl bench.Workload, ci int, latest *atomic.Uint64, cl *Client) func() error {
	rng := splitmix(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(ci+1)*0x2545f4914f6cdd1d)
	var z *bench.Zipf
	if wl.Theta > 0 {
		z = bench.NewZipf(cfg.Range, wl.Theta)
	}
	key := func() uint64 {
		r := rng.next()
		var k uint64
		if z != nil {
			k = z.Next(r)
		} else {
			k = r%cfg.Range + 1
		}
		if wl.ReadLatest {
			max := latest.Load()
			if k > max {
				k = max
			}
			k = max - k + 1
		}
		return k
	}
	var zscan *bench.Zipf
	if wl.ScanPct > 0 {
		maxLen := wl.MaxScanLen
		if maxLen <= 0 {
			maxLen = 100
		}
		zscan = bench.NewZipf(uint64(maxLen), 0.99)
	}
	return func() error {
		r := int(rng.next() % 100)
		switch {
		case r < wl.ReadPct:
			return cl.SendGet(key())
		case r < wl.ReadPct+wl.UpdatePct:
			return cl.SendPut(key(), rng.next())
		case r < wl.ReadPct+wl.UpdatePct+wl.InsertPct:
			return cl.SendInsert(latest.Add(1), rng.next())
		case r < wl.ReadPct+wl.UpdatePct+wl.InsertPct+wl.RMWPct+wl.AtomicPct:
			// RMW over the wire is the server-side conditional overwrite:
			// one round trip through the structure's Update critical section.
			return cl.SendUpdate(key(), rng.next())
		default:
			lo := key()
			want := int(zscan.Next(rng.next()))
			return cl.SendScan(lo, lo+4*uint64(want), want)
		}
	}
}

// loadConn runs one connection's closed loop over the pre-dialed cl
// (owned and closed by RunLoad).
func loadConn(cfg LoadConfig, wl bench.Workload, ci int, cl *Client, budget uint64,
	deadline time.Time, latest *atomic.Uint64, h *bench.Histogram) (ops, errors uint64, err error) {
	send := opSender(cfg, wl, ci, latest, cl)

	times := make([]time.Time, cfg.Pipeline) // FIFO ring of send timestamps
	head, tail, inflight := 0, 0, 0
	readOne := func() error {
		rep, err := cl.ReadReply()
		if err != nil {
			return err
		}
		h.Record(time.Since(times[head]))
		head = (head + 1) % len(times)
		inflight--
		ops++
		if rep.IsErr() {
			errors++
		}
		return nil
	}
	for {
		if budget > 0 && ops+uint64(inflight) >= budget {
			break
		}
		// The deadline only applies once something has been issued: every
		// connection contributes at least one op, so a smoke-length window
		// on a slow machine still measures a non-empty run. Completed ops
		// count as issued — at depth 1 nothing is in flight at the loop top.
		if budget == 0 && ops+uint64(inflight) > 0 && !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		times[tail] = time.Now()
		tail = (tail + 1) % len(times)
		if err := send(); err != nil {
			return ops, errors, err
		}
		inflight++
		if inflight == cfg.Pipeline {
			if err := cl.Flush(); err != nil {
				return ops, errors, err
			}
			if err := readOne(); err != nil {
				return ops, errors, err
			}
		}
	}
	if err := cl.Flush(); err != nil {
		return ops, errors, err
	}
	for inflight > 0 {
		if err := readOne(); err != nil {
			return ops, errors, err
		}
	}
	return ops, errors, nil
}

// loadConnOpen runs one connection's open-loop schedule: a sender paces
// requests on the arrival process and a receiver records, for every reply,
// the time since that request was *scheduled* to be sent. When the server
// (or the sender itself) falls behind, requests go out late in a catch-up
// burst but their latency still counts from the intended time — the
// coordinated-omission-free accounting the package comment describes.
// cl is pre-dialed and owned by RunLoad; the error path below may close
// it early to unblock the receiver (Close is idempotent).
func loadConnOpen(cfg LoadConfig, wl bench.Workload, ci int, cl *Client, budget uint64,
	deadline time.Time, latest *atomic.Uint64, h *bench.Histogram) (ops, errors, sent uint64, err error) {
	send := opSender(cfg, wl, ci, latest, cl)

	// Each connection runs its slice of the aggregate rate. The arrival
	// RNG is independent of the workload RNG so the schedule does not
	// depend on which ops are drawn.
	mean := float64(time.Second) * float64(cfg.Conns) / cfg.Rate
	arng := splitmix(uint64(cfg.Seed)*0x6c62272e07bb0142 + uint64(ci+1)*0x27d4eb2f165667c5)

	// intents carries intended send times to the receiver in send order
	// (replies are FIFO per connection). Its capacity bounds the backlog a
	// stalled server can accumulate inside the generator; at the default
	// rates it is minutes of schedule.
	intents := make(chan time.Time, 1<<16)
	var stop atomic.Bool
	var recvErr error
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for t := range intents {
			rep, e := cl.ReadReply()
			if e != nil {
				recvErr = e
				stop.Store(true)
				for range intents { // unblock the sender until it closes
				}
				return
			}
			h.Record(time.Since(t))
			ops++
			if rep.IsErr() {
				errors++
			}
		}
	}()

	intended := time.Now()
	for !stop.Load() {
		if budget > 0 && sent >= budget {
			break
		}
		step := mean
		if cfg.Poisson {
			// Exponential interarrival: -mean·ln(U), U uniform in (0, 1].
			u := float64(arng.next()>>11+1) / float64(1<<53)
			step = -mean * math.Log(u)
		}
		intended = intended.Add(time.Duration(step))
		if budget == 0 && !deadline.IsZero() && intended.After(deadline) {
			break
		}
		// Ahead of schedule: flush what is queued and sleep until the
		// intended instant. Behind schedule: send immediately (catch-up
		// burst), flushing every 64 requests to bound the buffered run.
		if wait := time.Until(intended); wait > 0 {
			if err = cl.Flush(); err != nil {
				break
			}
			time.Sleep(wait)
		} else if sent%64 == 0 {
			if err = cl.Flush(); err != nil {
				break
			}
		}
		intents <- intended
		if err = send(); err != nil {
			break
		}
		sent++
	}
	if err == nil {
		err = cl.Flush()
	}
	if err != nil {
		// The receiver may be blocked in ReadReply on a half-broken
		// connection; closing it unblocks the read (Close is idempotent).
		cl.Close()
	}
	close(intents)
	<-recvDone
	if err == nil {
		err = recvErr
	}
	return ops, errors, sent, err
}

// prefillWire inserts every other key of [1, Range] over the wire, the
// key-partitioned pipelined equivalent of bench.Prefill.
func prefillWire(cfg LoadConfig) error {
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Conns)
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(cfg.Addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			pending := 0
			for k := uint64(1 + 2*w); k <= cfg.Range; k += 2 * uint64(cfg.Conns) {
				if err := cl.SendInsert(k, k); err != nil {
					errCh <- err
					return
				}
				if pending++; pending == 64 {
					if err := drain(cl, pending); err != nil {
						errCh <- err
						return
					}
					pending = 0
				}
			}
			if err := drain(cl, pending); err != nil {
				errCh <- err
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

func drain(cl *Client, n int) error {
	if err := cl.Flush(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := cl.ReadReply(); err != nil {
			return err
		}
	}
	return nil
}

// Bench runs a self-contained serve-and-load cycle — a 4-shard
// zero-profile hash engine behind a Unix socket, four pipelining
// connections of YCSB-A — and returns the outcome as a bench.Result, so
// nvbench's JSON baseline can carry a server row next to the in-process
// panels. The wire stack (sockets, parsing, batching) is the measured
// object; the zero profile keeps simulated memory latency out of it.
//
// Each cycle is two passes: a closed-loop pass that measures capacity
// (throughput, flush/fence rates), then an open-loop Poisson pass at 70% of
// that capacity whose histogram supplies the result's latency percentiles —
// tails quoted at a fixed offered rate, free of coordinated omission.
func Bench(dur time.Duration) (bench.Result, error) {
	return benchStore(dur, "", false)
}

// BenchFile is Bench against the durable file backend: the same wire
// workload, but every commit fence journals into a WAL on disk (a
// throwaway directory, no fsync). The delta against Bench's row is the
// serving-path cost of real durability.
func BenchFile(dur time.Duration) (bench.Result, error) {
	dataDir, err := os.MkdirTemp("", "nvserver-bench-data")
	if err != nil {
		return bench.Result{}, err
	}
	defer os.RemoveAll(dataDir)
	return benchStore(dur, dataDir, false)
}

// BenchBin is Bench over the binary frame protocol: the same store, socket
// and workload, decoded from fixed-layout frames on the zero-allocation
// path. The delta against Bench's row is what text parsing and reply
// formatting cost the serving path.
func BenchBin(dur time.Duration) (bench.Result, error) {
	return benchStore(dur, "", true)
}

// openLoopFraction sets the offered rate of the latency pass relative to
// the measured closed-loop capacity. At 1.0 the queue never drains and the
// percentiles measure the backlog, not the server; 0.7 is busy enough to
// exercise batching while staying inside the stable region.
const openLoopFraction = 0.7

func benchStore(dur time.Duration, dataDir string, binary bool) (bench.Result, error) {
	const conns, shards = 4, 4
	var keyRange uint64 = 1 << 15
	cfg := bench.Config{
		Kind: core.KindHash, Policy: "nvtraverse", Profile: pmem.ProfileZero,
		Threads: conns, Range: keyRange, Workload: "A", Shards: shards,
	}
	// Connection headroom: prefill, the closed-loop pass and the open-loop
	// pass each dial `conns` connections back to back, and the server
	// releases a closed connection's slot asynchronously — without slack a
	// new pass can race the previous pass's teardown into a refusal.
	st, err := store.Open(store.Config{
		Kind: cfg.Kind, Policy: persist.NVTraverse{}, Profile: cfg.Profile,
		Shards: shards, SizeHint: int(keyRange), MaxSessions: 3*conns + shards + 8,
		Dir: dataDir,
	})
	if err != nil {
		return bench.Result{}, err
	}
	defer st.Close()
	dir, err := os.MkdirTemp("", "nvserver-bench")
	if err != nil {
		return bench.Result{}, err
	}
	defer os.RemoveAll(dir)
	addr := "unix:" + filepath.Join(dir, "nv.sock")
	srv := New(st, Config{MaxConns: 3 * conns})
	ln, err := Listen(addr)
	if err != nil {
		return bench.Result{}, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-serveDone
	}()

	if err := prefillWire(LoadConfig{Addr: addr, Conns: conns, Range: keyRange}); err != nil {
		return bench.Result{}, err
	}
	st.ResetStats()
	res, err := RunLoad(LoadConfig{
		Addr: addr, Conns: conns, Pipeline: 16,
		Duration: bench.EffectiveDuration(dur),
		Workload: cfg.Workload, Range: keyRange,
		Binary: binary,
	})
	if err != nil {
		return bench.Result{}, err
	}
	if res.Errors > 0 {
		return bench.Result{}, fmt.Errorf("server: bench run saw %d protocol errors", res.Errors)
	}
	stats := st.Stats()
	out := bench.Result{
		Config:  cfg,
		Ops:     res.Ops,
		Mops:    res.OpsPerSec / 1e6,
		Elapsed: res.Elapsed,
		Lat:     res.Lat,
	}
	if res.Ops > 0 {
		out.FlushPerOp = float64(stats.Flushes) / float64(res.Ops)
		out.ElidePerOp = float64(stats.FlushesElided) / float64(res.Ops)
		out.FencePerOp = float64(stats.Fences) / float64(res.Ops)
	}

	// Latency pass: open-loop Poisson arrivals at a fixed fraction of the
	// capacity the closed-loop pass just measured. Its percentiles replace
	// the closed-loop ones in the row; throughput keeps the capacity
	// numbers. The pass is budgeted in ops rather than wall clock (budget ≈
	// rate × duration) so smoke-length durations still produce a histogram:
	// a duration window can expire before a slow machine sends anything, an
	// op budget cannot.
	rate := res.OpsPerSec * openLoopFraction
	if rate < 1000 {
		rate = 1000
	}
	budget := uint64(rate * bench.EffectiveDuration(dur).Seconds())
	if budget < 16*conns {
		budget = 16 * conns
	}
	open, err := RunLoad(LoadConfig{
		Addr: addr, Conns: conns, Pipeline: 16,
		Ops:      budget,
		Workload: cfg.Workload, Range: keyRange,
		Binary: binary,
		Rate:   rate, Poisson: true,
	})
	if err != nil {
		return bench.Result{}, err
	}
	if open.Errors > 0 {
		return bench.Result{}, fmt.Errorf("server: open-loop pass saw %d protocol errors", open.Errors)
	}
	out.Lat = open.Lat
	out.Offered = open.Offered
	return out, nil
}
