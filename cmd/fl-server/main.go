// Command fl-server runs the aggregation server of the federated pipeline:
// it serves the global model, collects (possibly mixed) parameter updates,
// and averages them once a round's worth has arrived.
//
// The initial model is derived deterministically from -dataset/-scale/-seed
// so that independently-started clients and server agree on the
// architecture.
//
// Usage:
//
//	fl-server -listen :8440 -dataset motionsense -scale quick -expect 8
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"mixnn/internal/experiment"
	"mixnn/internal/proxy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fl-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fl-server", flag.ContinueOnError)
	var (
		listen  = fs.String("listen", ":8440", "address to serve on")
		dataset = fs.String("dataset", "motionsense", "dataset key (fixes the model architecture)")
		scaleS  = fs.String("scale", "quick", "experiment scale: quick or full")
		seed    = fs.Int64("seed", 1, "model-initialisation seed (must match clients)")
		expect  = fs.Int("expect", 8, "updates per aggregation round")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale := experiment.ScaleQuick
	if *scaleS == "full" {
		scale = experiment.ScaleFull
	}
	spec, err := experiment.DatasetByKey(*dataset, scale, *seed)
	if err != nil {
		return err
	}

	agg, err := proxy.NewAggServer(spec.Arch.New(*seed^0x6d78).SnapshotParams(), *expect)
	if err != nil {
		return err
	}
	log.Printf("fl-server: dataset=%s scale=%s expect=%d listening on %s", *dataset, scale, *expect, *listen)
	srv := &http.Server{
		Addr:              *listen,
		Handler:           agg.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return srv.ListenAndServe()
}
