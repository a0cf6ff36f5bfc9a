// Command bosinspect dumps the block structure of a bos stream: per block,
// the mode the planner chose (plain / bos / parts), the outlier counts, the
// class bit-widths alpha/beta/gamma and the encoded size. Use it to see what
// BOS is doing to your data.
//
//	boscli -c -in values.txt -out values.bos
//	bosinspect -in values.bos
//
// Pointed at a TSF2 file (an engine data-*.tsf), it prints the footer index
// instead: per series, each chunk's packer, time bounds, and the statistics
// block the compressed-domain query executor prunes with (count/min/max/sum).
//
//	bosinspect -in data/data-000001.tsf
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"

	"bos/internal/core"
	"bos/internal/tsfile"
)

func main() {
	inPath := flag.String("in", "", "bos stream (default stdin)")
	flag.Parse()

	in := os.Stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	data, err := io.ReadAll(in)
	if err != nil {
		fatal(err)
	}
	if err := inspect(os.Stdout, data); err != nil {
		fatal(err)
	}
}

// Stream constants mirroring the public bos package header.
const (
	magic0, magic1 = 0xB0, 0x51
	kindInt        = 0x00
	kindFloat      = 0x01
	kindFloatRaw   = 0x02
)

func inspect(w io.Writer, data []byte) error {
	if bytes.HasPrefix(data, []byte("TSF2")) {
		return inspectTSF(w, data)
	}
	if len(data) < 4 || data[0] != magic0 || data[1] != magic1 {
		// No stream header: try a bare segment file from bos.Writer.
		return inspectSegments(w, data)
	}
	if len(data) < 5 {
		return fmt.Errorf("truncated header")
	}
	kind, pipeline, post := data[2], data[3], data[4]
	rest := data[5:]
	blockSize, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("bad block size")
	}
	rest = rest[n:]
	kindName := map[byte]string{kindInt: "int", kindFloat: "float(scaled)", kindFloatRaw: "float(raw)"}[kind]
	pipeName := map[byte]string{0: "delta", 1: "raw", 2: "rle"}[pipeline]
	postName := map[byte]string{0: "none", 1: "lz4", 2: "range"}[post]
	fmt.Fprintf(w, "stream: kind=%s pipeline=%s post=%s blocksize=%d total=%d bytes\n",
		kindName, pipeName, postName, blockSize, len(data))
	if post != 0 {
		fmt.Fprintln(w, "entropy-coded payload (decode with boscli to inspect blocks)")
		return nil
	}
	if kind == kindFloat {
		p, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("bad precision")
		}
		fmt.Fprintf(w, "precision: 10^-%d\n", p)
		rest = rest[n:]
	}
	if kind == kindFloatRaw {
		fmt.Fprintln(w, "raw float payload (no blocks)")
		return nil
	}
	// All pipelines begin with a varint total count; rle adds a run count.
	total, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("bad count")
	}
	rest = rest[n:]
	fmt.Fprintf(w, "values: %d\n", total)
	expect := total
	if pipeline == 2 { // rle: value blocks hold nRuns values
		runs, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("bad run count")
		}
		rest = rest[n:]
		fmt.Fprintf(w, "runs: %d\n", runs)
		expect = runs
	}
	return dumpBlocks(w, rest, expect)
}

// dumpBlocks walks consecutive blocks until `expect` values are covered.
func dumpBlocks(w io.Writer, rest []byte, expect uint64) error {
	var seen uint64
	for i := 0; seen < expect && len(rest) > 0; i++ {
		info, r, err := core.InspectBlock(rest)
		if err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		printBlock(w, i, info)
		seen += uint64(info.N)
		rest = r
	}
	if seen < expect {
		return fmt.Errorf("stream ends after %d of %d values", seen, expect)
	}
	return nil
}

func printBlock(w io.Writer, i int, info core.BlockInfo) {
	switch info.Mode {
	case "bos":
		fmt.Fprintf(w, "block %3d: bos   n=%-5d nl=%-4d nu=%-4d a/b/g=%d/%d/%d xmin=%d minXc=%d minXu=%d %d bytes\n",
			i, info.N, info.NL, info.NU, info.Alpha, info.Beta, info.Gamma,
			info.Xmin, info.MinXc, info.MinXu, info.BodyBytes)
	case "parts":
		fmt.Fprintf(w, "block %3d: parts n=%-5d k=%d %d bytes\n", i, info.N, info.K, info.BodyBytes)
	default:
		fmt.Fprintf(w, "block %3d: plain n=%-5d width=%-2d xmin=%d %d bytes\n",
			i, info.N, info.Width, info.Xmin, info.BodyBytes)
	}
}

// inspectTSF prints a TSF2 file's footer index: per series, each chunk's
// layout and the per-chunk statistics block (count/min/max/sum) the pushdown
// executor answers aggregates from without decoding. Chunks written before
// the v2 footer print "stats=none" — queries fall back to full decode there.
func inspectTSF(w io.Writer, data []byte) error {
	r, err := tsfile.OpenReader(bytes.NewReader(data), int64(len(data)), tsfile.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tsfile: %d bytes, %d series\n", len(data), len(r.Series()))
	for _, name := range r.Series() {
		chunks, err := r.Chunks(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "series %q: %d chunks\n", name, len(chunks))
		for ci, m := range chunks {
			kind := map[byte]string{0: "int", 1: "scaled", 2: "raw"}[m.Kind]
			packer := m.Packer
			if packer == "" {
				packer = r.DefaultPacker()
			}
			if packer == "" {
				packer = "default"
			}
			fmt.Fprintf(w, "  chunk %3d: %-6s packer=%-10s n=%-6d t=[%d,%d] %d bytes",
				ci, kind, packer, m.Count, m.MinT, m.MaxT, m.EncodedBytes)
			if m.HasStats {
				fmt.Fprintf(w, " stats: min=%d max=%d sum=%d\n", m.MinV, m.MaxV, m.Sum)
			} else {
				fmt.Fprintf(w, " stats=none\n")
			}
		}
	}
	return nil
}

// inspectSegments handles bos.Writer segment files: varint length + stream.
func inspectSegments(w io.Writer, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("empty input")
	}
	for i := 0; len(data) > 0; i++ {
		segLen, n := binary.Uvarint(data)
		if n <= 0 || segLen > uint64(len(data)-n) {
			return fmt.Errorf("not a bos stream or segment file")
		}
		fmt.Fprintf(w, "-- segment %d (%d bytes) --\n", i, segLen)
		if err := inspect(w, data[n:n+int(segLen)]); err != nil {
			return err
		}
		data = data[n+int(segLen):]
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bosinspect:", err)
	os.Exit(1)
}
