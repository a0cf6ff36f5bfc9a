// Command bosdb runs the miniature IoTDB-style storage engine of
// internal/engine over a data directory: ingest CSV points (with WAL
// durability), query ranges, aggregate, compact, and report storage
// statistics — BOS working as the storage operator of an actual write/read
// path.
//
//	bosdb -dir ./data -ingest -in points.csv
//	bosdb -dir ./data -query -series root.d1.temp -from 0 -to 10000
//	bosdb -dir ./data -agg   -series root.d1.temp
//	bosdb -dir ./data -compact
//	bosdb -dir ./data -stats
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"bos/internal/engine"
	"bos/internal/packers"
	"bos/internal/tsfile"
)

func main() {
	var (
		dir      = flag.String("dir", "", "data directory (required)")
		ingest   = flag.Bool("ingest", false, "ingest CSV rows of series,timestamp,value")
		query    = flag.Bool("query", false, "query one series")
		agg      = flag.Bool("agg", false, "aggregate (count/min/max/sum) one series")
		compact  = flag.Bool("compact", false, "merge all data files into one")
		stats    = flag.Bool("stats", false, "print storage statistics")
		inPath   = flag.String("in", "", "CSV input for -ingest (default stdin)")
		series   = flag.String("series", "", "series name for -query/-agg")
		from     = flag.Int64("from", math.MinInt64, "minimum timestamp")
		to       = flag.Int64("to", math.MaxInt64, "maximum timestamp")
		packer   = flag.String("packer", "bosb", "packing operator: "+strings.Join(packers.Names(), ", "))
		adaptive = flag.Bool("adaptive", false, "-compact: repack each series with its cheapest operator")
	)
	flag.Parse()
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required"))
	}
	modes := 0
	for _, m := range []bool{*ingest, *query, *agg, *compact, *stats} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		fatal(fmt.Errorf("exactly one of -ingest, -query, -agg, -compact, -stats is required"))
	}
	p, err := packers.ByName(*packer)
	if err != nil {
		fatal(err)
	}
	e, err := engine.Open(engine.Options{Dir: *dir, File: tsfile.Options{Packer: p}})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := e.Close(); err != nil {
			fatal(err)
		}
	}()

	switch {
	case *ingest:
		err = runIngest(e, *inPath)
	case *query:
		err = runQuery(e, *series, *from, *to)
	case *agg:
		err = runAgg(e, *series, *from, *to)
	case *compact:
		err = runCompact(e, *adaptive)
	default:
		st := e.Stats()
		fmt.Printf("files=%d series=%d disk_points=%d disk_bytes=%d mem_points=%d",
			st.Files, st.SeriesCount, st.DiskPoints, st.DiskBytes, st.MemPoints)
		if st.DiskPoints > 0 {
			fmt.Printf(" bytes/point=%.2f", float64(st.DiskBytes)/float64(st.DiskPoints))
		}
		fmt.Println()
	}
	if err != nil {
		fatal(err)
	}
}

func runIngest(e *engine.Engine, inPath string) error {
	in := os.Stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line, total := 0, 0
	batch := map[string][]tsfile.Point{}
	flush := func() error {
		for s, pts := range batch {
			if err := e.InsertBatch(s, pts); err != nil {
				return err
			}
			total += len(pts)
		}
		batch = map[string][]tsfile.Point{}
		return nil
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return fmt.Errorf("line %d: want series,timestamp,value", line)
		}
		t, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return fmt.Errorf("line %d: timestamp: %w", line, err)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
		if err != nil {
			return fmt.Errorf("line %d: value: %w", line, err)
		}
		name := strings.TrimSpace(parts[0])
		batch[name] = append(batch[name], tsfile.Point{T: t, V: v})
		if line%10000 == 0 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bosdb: ingested %d points\n", total)
	return nil
}

func runCompact(e *engine.Engine, adaptive bool) error {
	if !adaptive {
		return e.Compact()
	}
	st, err := e.CompactWith(packers.Names())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bosdb: compacted %d files, %d series, %d -> %d bytes\n",
		st.Files, st.Series, st.BytesBefore, st.BytesAfter)
	for s, p := range st.SeriesPackers {
		fmt.Fprintf(os.Stderr, "bosdb:   %s -> %s\n", s, p)
	}
	return nil
}

func runQuery(e *engine.Engine, series string, from, to int64) error {
	if series == "" {
		return fmt.Errorf("-series is required")
	}
	pts, err := e.Query(series, from, to)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, p := range pts {
		fmt.Fprintf(w, "%d,%d\n", p.T, p.V)
	}
	fmt.Fprintf(os.Stderr, "bosdb: %d points\n", len(pts))
	return nil
}

func runAgg(e *engine.Engine, series string, from, to int64) error {
	if series == "" {
		return fmt.Errorf("-series is required")
	}
	b, err := e.Aggregate(series, from, to)
	if err != nil {
		return err
	}
	if b.Count == 0 {
		fmt.Println("count=0")
		return nil
	}
	fmt.Printf("count=%d min=%d max=%d sum=%d avg=%.2f\n", b.Count, b.Min, b.Max, b.Sum, b.Avg())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bosdb:", err)
	os.Exit(1)
}
