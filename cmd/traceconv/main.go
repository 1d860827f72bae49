// Command traceconv converts traces between the supported encodings
// (text, binary, and DFSTrace ASCII dumps as input) using the streaming
// scanner/writer pipeline, so traces larger than memory convert fine.
//
// Examples:
//
//	traceconv -in trace.txt -out trace.trc -to binary
//	traceconv -in dump.dfs -from dfs -out trace.txt -to text
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aggcache/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "traceconv:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("traceconv", flag.ContinueOnError)
	var (
		in   = fs.String("in", "-", "input file (- for stdin)")
		out  = fs.String("out", "-", "output file (- for stdout)")
		from = fs.String("from", "auto", "input format: auto|text|binary|dfs")
		to   = fs.String("to", "binary", "output format: text|binary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}

	var writer *trace.Writer
	switch *to {
	case "text":
		writer, err = trace.NewTextWriter(w)
	case "binary":
		writer, err = trace.NewBinaryWriter(w)
	default:
		return fmt.Errorf("unknown output format %q", *to)
	}
	if err != nil {
		return err
	}

	n, err := convert(r, *from, writer)
	if err != nil {
		return err
	}
	if err := writer.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "traceconv: %d records\n", n)
	return nil
}

// convert streams records from r (in the given format) into writer.
func convert(r io.Reader, from string, writer *trace.Writer) (int, error) {
	// DFS dumps have no streaming scanner (they need whole-trace host
	// mapping anyway and are text-light); load and replay.
	if from == "dfs" {
		tr, imp, err := trace.ReadDFSTrace(r)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "traceconv: dfs import: %d records, %d skipped ops, %d malformed\n",
			imp.Records, imp.SkippedOps, imp.Malformed)
		for _, ev := range tr.Events {
			if err := writer.Write(ev, tr.Paths.Path(ev.File)); err != nil {
				return 0, err
			}
		}
		return tr.Len(), nil
	}

	scanner, err := openScanner(r, from)
	if err != nil {
		return 0, err
	}
	n := 0
	for scanner.Scan() {
		if err := writer.Write(scanner.Event(), scanner.Path()); err != nil {
			return n, err
		}
		n++
	}
	return n, scanner.Err()
}

// openScanner builds a streaming scanner; "auto" lets trace.NewScanner
// tell the formats apart.
func openScanner(r io.Reader, from string) (*trace.Scanner, error) {
	switch from {
	case "text":
		return trace.NewTextScanner(r)
	case "binary":
		return trace.NewBinaryScanner(r)
	case "auto":
		return trace.NewScanner(r)
	default:
		return nil, fmt.Errorf("unknown input format %q", from)
	}
}
