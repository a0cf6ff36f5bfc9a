// Command bosperf is the repository's end-to-end and per-layer benchmark. It
// drives the real serving stack in one process — server.New over
// server.NewEngineBackend(engine.Open(...)) behind a loopback httptest
// listener — with seeded workloads, checks every answer against an in-memory
// model of the data, and prints every metric by name and unit.
//
// # Running
//
// From the repository root, through the wrapper that builds it into
// .bench_build/ first (GOCACHE and the run's data stay there too):
//
//	bash cmd/bosperf/run.sh --workload scan_hot --seed 1 --seconds 10 --trace 0
//	bash cmd/bosperf/run.sh --workload scan_hot --seed 1 --seconds 10 --trace 1
//	bash cmd/bosperf/run.sh -compare old.jsonl new.jsonl
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same workload
// with tracing on and reports the per-layer metrics instead; end-to-end
// numbers always come from untraced runs. -report FILE appends the run's
// full JSON report {env, commit, seed, workload, end_to_end | per_layer, ops,
// layers} as one line, and -commit ID stamps it. The last line of standard
// output is always {"correct", "attempted", "failed", "metrics"}.
// BENCHMARK.json at the repository root lists the workloads and metrics, and
// a test keeps it in step with the tables in metrics.go.
//
// # Workloads
//
// Data is 64 int and 16 float series, each a seed-chosen window of one of the
// twelve paper dataset stand-ins (internal/dataset), one point per second.
// The seed picks the windows and the request schedule; the stack receives
// only the generated requests. Ingest requests are 500-point single-series
// line-protocol batches. Load comes from one closed-loop goroutine, or on
// mixed from two, each with its own single connection: on the two-core
// baseline machine a second closed-loop client doubled throughput and also
// the spread between runs.
//
//   - ingest: one closed-loop writer posts batches round-robin over the 80
//     series until each series holds a fixed count of points: --seconds x
//     400,000 over all series (4M at --seconds 10, about 10 s of posting on
//     the baseline machine). So a seed's stored data, its size on disk and
//     the request and flush counts repeat exactly. Afterwards, untimed:
//     close the stack (closing flushes), reopen the files, compact them into
//     one, read back every series. Why: the write path does all the work —
//     parse, WAL, memtable, inline flush (planner + pack) — and the read
//     path none. With one writer group commit has nothing to batch.
//   - scan_hot: 80 x 16384 points preloaded through engine inserts in the
//     ingest batch order, which leaves the flush layout ingest leaves (about
//     80 files of ~500-point chunks, each series in ~33 of them); one full
//     read pass fills the 64 MiB cache; then one closed-loop reader scans
//     4096 raw points at random series and offsets. Why: merge across many
//     files, CSV and HTTP do the work and decode none (hit rate 1), so a
//     decode change must read "no change" here.
//   - agg_cold: the same preload in the layout a full compaction leaves, one
//     file with one 16384-point chunk per series, which set-up writes with a
//     single flush of the whole preload; a 4 MiB chunk cache, a fifth of the
//     21 MB decoded working set; 150 untimed warm-up reads. One closed-loop
//     reader sends equal thirds of raw 4096-point scans, window=512
//     aggregates over 8192-point ranges, and vmin=p99 filters over
//     8192-point ranges. Why: block decode, cache misses and the pushdown
//     tiers do the work, over a single merge source.
//   - mixed: agg_cold's one-file preload with the default cache. One
//     open-loop writer appends batches to the series' tails, round-robin, at
//     50,000 points/s, about an eighth of ingest's throughput on the baseline
//     machine. A request an earlier one held past its scheduled time counts
//     its latency from that time, so a flush or compaction stall is charged
//     to every request it delays; the report gives the generator's
//     lateness. Each inline flush holds the writer ~45 ms per 16384 points,
//     so at this rate (30 flushes in 10 s) about one request in seven is
//     charged. At 100,000 points/s a quarter were charged, and more than
//     half in runs where the host took more of the CPU, so the writer's
//     median flipped between its two modes. One closed-loop reader scans the
//     newest 4096 acknowledged points of a random series and sends POST
//     /compact?mode=policy to the unstarted maintainer instead every 400th
//     request (about one a second).
//     Afterwards, untimed: close the stack, reopen the files, compact them
//     into one, read back every series. Why: writes beside reads, so a flush
//     or compaction change cannot buy one side with the other's latency
//     unseen, and recent-key reads merge the memtable with the newest files.
//
// ingest and agg_cold run bosserver's default configuration: one BOS-B
// packer shared by every data file, flush threshold 16384, WAL without
// fsync, a 64 MiB cache (agg_cold: 4 MiB), GOMAXPROCS encode workers and a
// maintainer with no timer. At the commit this benchmark was added on, a
// core.Packer's decode scratch is not safe for concurrent use, so two
// goroutines decoding through one packer corrupt each other's blocks. Inside
// a request handler that is a "corrupt block" 500, a 200 with an empty body
// or wrong values; inside the engine's own goroutines — a merged scan
// decodes the first chunk of every file in parallel, a compaction decodes on
// every encode worker — a panic that ends the process. No workload here
// lets an operation fail. ingest decodes nothing while it is timed, and
// agg_cold's one reader decodes its one file on one goroutine (with two
// readers about 2% of its requests failed on every run). scan_hot and mixed,
// whose scans span many files, give each file its own packer (the engine
// default); mixed, whose timed compactions would decode one file on two
// workers, also encodes on one. The final compaction bytes_per_point is
// measured on runs on an engine of its own with one encode worker.
//
// # Correctness
//
// Expected answers come from the seeded model, never from the stack: raw
// scans and filters must match the exact point count and an order-sensitive
// checksum over (t, v); windows must match every bucket's start, count, min,
// max and sum; ingest must acknowledge every point, and after the untimed
// restart and compaction every series must read back exactly its
// acknowledged points. An error, a wrong value or a 200 with a short or
// empty body counts in "failed", and the first five per op kind go to
// standard error. The run never stops or retries on a wrong answer.
//
// # End-to-end metrics
//
// Every workload reports each one over its own request mix. The bound is how
// far a median may worsen before it counts as a regression.
//
//	setup_s           s             lower  25%  median of >= 3 set-ups (open, preload, warm)
//	points_per_cpu_s  points/cpu-s  higher 25%  points acknowledged or read per CPU-second of the process
//	p50_ms            ms            lower  25%  geometric mean over the op kinds of each kind's median latency
//	bytes_per_point   B/point       lower   1%  on disk at the end (after the final compaction where there is one)
//	rss_peak_mb       MiB           lower  20%  getrusage peak of the one process
//
// An op kind's p50 is the median over the one-second slices of the timed
// phase of each slice's median latency. points_per_cpu_s divides by the user
// and system CPU time the whole process used while timed: the server, the
// client library and this package's load loop and oracle. It is the
// throughput one core sustains, and time the host takes the CPU away does
// not count in it. Compactions, warm-up reads and read-backs are checked but
// not timed.
//
// The baseline machine is a 2-vCPU VM on a shared host, which took from
// under 1% to about 60% of the CPU away in a run (steal in /proc/stat). That
// moved wall-clock figures much more than CPU time. Over ten seeds the
// interquartile range reached 2.3 of the median for p95 latency and 0.35
// for wall-clock throughput, against at most 0.21 for CPU time per point
// and the per-second median latency. So wall-clock throughput
// (wall_points_per_s) and each op kind's p95 and p99, with its sample
// count, are printed above the result line and kept in the report, and
// -compare judges each op kind's p95, but none is an end-to-end metric: no
// bound could tell a change from the host. The timings were meant to hold
// 10%; their bound is 25%, the widest the benchmark format allows, because
// the host spreads ten runs by up to 0.21 (results/README.md).
//
// # Per-layer metrics and what they should move
//
// Layers are the repository's modules. client, server, engine and maintain
// are timed by live spans recorded only in this package's own wrappers: the
// load goroutines (client.<op>, around each HTTP request), an http.Handler
// around the server's mux (server.<op>), and a server.Backend around the
// engine (engine.<Method>) that also forwards Compactor. Self time is a span
// minus its children; the handler callbacks inside QueryEach and
// QueryFilterEach are timed apart as CSV and count as server time. One
// InsertGrouped can serve several ingest requests, so it records the
// (series, time range) it committed and each request links to the commit
// that served it. Counts (group commit, WAL, cache, pushdown tiers,
// compactions) are /stats deltas over the timed phase. tsfile and core sit
// below the engine's public API and are measured by replay probes after the
// live phase: tsfile.Reader.ChunkColumns over the run's own data files with
// no cache, tsfile.EncodeSeries and
// core.EncodeBlock/DecodeBlockScratch/InspectBlock over the values the run
// stored. "<layer>.<op>.self_ms" is the per-request median self time; 0
// means the workload sends no such op.
//
//	client.<op>.self_ms                                   that op's p50                      its workload
//	server.ingest.self_ms, server.ingest.requests_per_group,
//	  server.committer_busy_frac                          points_per_cpu_s (mixed: ingest p95)  ingest, mixed
//	server.{scan,window,filter}.self_ms, server.*.csv_ms  points_per_cpu_s, p50_ms           scan_hot (a small share on agg_cold)
//	engine.insert_ms, engine.insert_p99_ms, engine.flushes,
//	  engine.wal_records_per_group                        points_per_cpu_s, ingest p95       ingest, mixed
//	engine.scan.self_ms, engine.scan.ns_per_point,
//	  engine.files, engine.kind_ms                        points_per_cpu_s, p50_ms           scan_hot (many files); small on agg_cold
//	engine.{window,filter}.self_ms, pushdown.*            p50_ms                             agg_cold
//	chunkcache.*, tsfile.decode_ns_per_point,
//	  core.decode_ns_per_value                            points_per_cpu_s, p50_ms           agg_cold; no change on scan_hot (hit rate 1)
//	tsfile.encode_ns_per_point, core.encode_ns_per_value  points_per_cpu_s                   ingest
//	core.bits_per_value, core.outlier_frac,
//	  tsfile.points_per_chunk                             bytes_per_point                    ingest, mixed
//	maintain.compactions, maintain.compact_ms,
//	  maintain.rewrite_amp                                scan p95, bytes_per_point          mixed
//	bench.overhead_frac, trace.overhead_frac,
//	  trace.accounted_frac                                none: validity of the run          every workload
//
// bench.overhead_frac is the share of the load goroutines' time spent in this
// package between requests (building bodies, computing expected answers);
// trace.overhead_frac estimates the clock reads and span records tracing
// adds (CSV callbacks are timed one in 16 and scaled up, which keeps it near
// 2%); trace.accounted_frac is the share of client time decomposed into
// nested layer spans.
//
// # Comparing two commits
//
// Record both sides with -report into two files, alternating the commits run
// by run, at least ten runs each, then run -compare. Per workload and metric
// it prints each side's median and quartiles, the pairs won, and a verdict:
// "better" when the new side wins at least 9 of 10 pairs and the medians
// differ by more than the old side's interquartile range (or every new run
// beats every old one); "unresolved" when either side's spread exceeds the
// metric's bound; "worse" when the new median is worse by more than the
// bound; otherwise "no change". p50_ms combines the op kinds, so each op
// kind's p50 and p95 (scan.p50_ms, window.p95_ms, ...) gets a verdict of
// its own under p50_ms's bound. Traced runs add the median self time of
// every (op, layer) pair on both sides.
//
// # Baseline
//
// results/ holds two untraced sets of ten seeds and one traced set of three,
// recorded at the commit this benchmark was added on; results/README.md
// gives the machine and the numbers. No request failed. The three largest
// self-time layers per request were:
//
//   - scan_hot: client 0.71 ms (HTTP and CSV parsing), engine 0.71 ms (the
//     merge across ~33 files), server 0.69 ms (0.47 of it CSV encoding).
//   - agg_cold: client 0.42 ms, engine 0.38 ms (cold decode, pushdown,
//     cache), server 0.27 ms.
//
// The engine's scan costs 160 to 215 ns per point on scan_hot, where the
// cache hit rate is 1 and nothing is decoded, against 8 to 17 ns per value
// for the BOS block decode itself. So the engine's per-point cost is the
// merged scan path, not decode. With the CSV text path on both sides it is
// the next bottleneck for cached reads; for cold reads it is whole-chunk
// decode on a cache miss.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the full record of one run, one JSON line per run.
type report struct {
	Env       map[string]string `json:"env"`
	Commit    string            `json:"commit"`
	Seed      int64             `json:"seed"`
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]value  `json:"end_to_end,omitempty"`
	PerLayer  map[string]value  `json:"per_layer,omitempty"`
	Ops       []opSummary       `json:"ops"`
	Layers    []*opTrace        `json:"layers,omitempty"`
	// WallPointsPerS is the points acknowledged or read per second of the
	// timed phase, which the host's share of the CPU moves (see endToEnd).
	WallPointsPerS float64 `json:"wall_points_per_s"`
	// CPUSeconds is the CPU time the process used in the timed phase.
	CPUSeconds float64 `json:"cpu_s"`
	// Lateness is the open-loop writer's send delay behind schedule.
	Lateness map[string]float64 `json:"generator_lateness_ms,omitempty"`
}

// lastLine is the result line every run ends with.
type lastLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bosperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: ingest, scan_hot, agg_cold or mixed")
	seed := fs.Int64("seed", 1, "seed for the data windows and the request schedule")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for the run's data (a subdirectory is removed afterwards)")
	reportPath := fs.String("report", "", "append the run's JSON report to this file")
	commit := fs.String("commit", "unknown", "commit id recorded in the report")
	compare := fs.Bool("compare", false, "compare two report files: -compare old.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := compareFiles(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "bosperf:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bosperf: -seconds must be positive, -trace 0 or 1")
		return 2
	}
	work := filepath.Join(*dir, "work-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(work)
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		dir: work, sz: fullSizes, stderr: stderr,
	}
	rep, err := execute(cfg, *commit)
	if err == nil && *reportPath != "" {
		err = appendReport(*reportPath, rep)
	}
	if err == nil {
		err = emit(stdout, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bosperf:", err)
		return 1
	}
	return 0
}

// emit prints the report for people, then the result line.
func emit(w io.Writer, rep *report) error {
	printReport(w, rep)
	metrics := rep.EndToEnd
	if rep.Trace {
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(lastLine{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// execute runs one workload and builds its report.
func execute(cfg config, commit string) (*report, error) {
	res, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	ops, attempted, failed := summarize(res)
	rep := &report{
		Env: map[string]string{
			"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
			"cpus": strconv.Itoa(runtime.NumCPU()), "gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		},
		Commit: commit, Seed: cfg.seed, Workload: cfg.workload, Trace: cfg.trace, Seconds: cfg.seconds,
		Attempted: attempted, Failed: failed, Ops: ops, CPUSeconds: res.cpu.Seconds(),
	}
	for _, o := range ops {
		if timedKinds[o.Op] {
			rep.WallPointsPerS += float64(o.Points) / res.elapsed.Seconds()
		}
	}
	e2e, timed := endToEndValues(res, ops)
	rep.Correct = failed == 0 && timed > 0
	if timed == 0 {
		return nil, errNoOps
	}
	if cfg.trace {
		rep.PerLayer = perLayerValues(res)
		rep.Layers = append(res.trace.Ops, res.trace.All)
	} else {
		rep.EndToEnd = e2e
	}
	if len(res.late) > 0 {
		late := sortDurations(res.late)
		rep.Lateness = map[string]float64{
			"p50": ms(quantile(late, 0.5)), "p99": ms(quantile(late, 0.99)), "max": ms(late[len(late)-1]),
		}
	}
	return rep, nil
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "bosperf %s seed=%d seconds=%g trace=%v commit=%s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Commit)
	for _, o := range rep.Ops {
		fmt.Fprintf(w, "  op %-8s attempted %6d  failed %d  samples %6d  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms (%d beyond)\n",
			o.Op, o.Attempted, o.Failed, o.Samples, o.P50Ms, o.P95Ms, o.P99Ms, o.Samples-(o.Samples*99+99)/100)
	}
	table, vals := endToEnd, rep.EndToEnd
	if rep.Trace {
		table, vals = perLayer, rep.PerLayer
	}
	for _, m := range table {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.Name, vals[m.Name].Value, m.Unit)
	}
	for _, o := range rep.Layers {
		layers := make([]string, 0, len(o.Self))
		for l := range o.Self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Fprintf(w, "  layers %-8s requests %d linked %d accounted %.4f client %.3f ms:", o.Op, o.Requests, o.Linked, o.Accounted, o.ClientMs)
		for _, l := range layers {
			fmt.Fprintf(w, " %s %.3f/%.3f", l, o.Self[l], o.SelfP50[l])
		}
		fmt.Fprintln(w, " (mean/p50 ms)")
	}
	fmt.Fprintf(w, "  wall clock %.6g points/s, CPU %.3g s\n", rep.WallPointsPerS, rep.CPUSeconds)
	if rep.Lateness != nil {
		fmt.Fprintf(w, "  generator lateness p50 %.3f ms  p99 %.3f ms  max %.3f ms\n",
			rep.Lateness["p50"], rep.Lateness["p99"], rep.Lateness["max"])
	}
}

func appendReport(path string, rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
