// Command fl-client runs one federated participant through the
// participant SDK (internal/client): it verifies the MixNN proxies'
// attestation, then loops — fetch the global model, train locally on
// its private partition, encrypt the update for the attested enclave
// and send it through the mixing tier. -proxy takes a comma-separated
// FAILOVER LIST: a proxy that is down or answers 5xx is skipped and the
// update is re-encrypted for the next proxy's enclave.
//
// The participant's private data is its deterministic partition of the
// synthetic dataset (-dataset/-scale/-seed must match the server):
//
//	fl-client -id 0 -rounds 3 \
//	    -proxy http://localhost:8441,http://localhost:8442 \
//	    -server http://localhost:8440 -trust trust.json
package main

import (
	"context"
	"crypto/ecdsa"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/experiment"
	"mixnn/internal/fl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fl-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fl-client", flag.ContinueOnError)
	var (
		proxyURL  = fs.String("proxy", "http://localhost:8441", "MixNN proxy base URL, or a comma-separated failover list tried in order")
		serverURL = fs.String("server", "http://localhost:8440", "aggregation server base URL")
		dataset   = fs.String("dataset", "motionsense", "dataset key")
		scaleS    = fs.String("scale", "quick", "experiment scale: quick or full")
		seed      = fs.Int64("seed", 1, "data/model seed (must match server)")
		id        = fs.Int("id", 0, "participant index in the population")
		rounds    = fs.Int("rounds", 3, "learning rounds to participate in")
		trustFile = fs.String("trust", "trust.json", "trust bundle written by mixnn-proxy")
		timeout   = fs.Duration("timeout", 10*time.Minute, "overall deadline")
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
	parts := spec.Source.Participants(*seed)
	if *id < 0 || *id >= len(parts) {
		return fmt.Errorf("participant id %d outside population [0,%d)", *id, len(parts))
	}
	cfg := spec.FL
	cfg.Seed = *seed
	if err := cfg.Validate(); err != nil {
		return err
	}
	learner := fl.NewClient(parts[*id], spec.Arch, cfg)

	authority, measurement, err := loadTrust(*trustFile)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var proxies []string
	for _, ep := range strings.Split(*proxyURL, ",") {
		if ep = strings.TrimSpace(ep); ep != "" {
			proxies = append(proxies, ep)
		}
	}
	session, err := client.New(client.Config{
		Proxies:  proxies,
		Server:   *serverURL,
		ClientID: fmt.Sprintf("fl-client-%d", *id),
	})
	if err != nil {
		return err
	}
	if err := session.Attest(ctx, authority, measurement); err != nil {
		return fmt.Errorf("attestation failed — refusing to send updates: %w", err)
	}
	log.Printf("fl-client %d: proxy enclave attested (measurement %s, %d proxies on the failover list)",
		*id, hex.EncodeToString(measurement[:]), len(proxies))

	for r := 0; r < *rounds; r++ {
		round, global, err := session.WaitForRound(ctx, r, 200*time.Millisecond)
		if err != nil {
			return err
		}
		update, err := learner.LocalTrain(global)
		if err != nil {
			return err
		}
		if err := session.SendUpdate(ctx, update); err != nil {
			return err
		}
		acc, err := learner.TestAccuracy(update)
		if err != nil {
			return err
		}
		log.Printf("fl-client %d: round %d trained and sent (local test acc %.3f)", *id, round, acc)
	}
	return nil
}

// loadTrust reads and parses the trust bundle mixnn-proxy -trust-out wrote.
func loadTrust(path string) (*ecdsa.PublicKey, [32]byte, error) {
	bundle, err := enclave.ReadTrustBundle(path)
	if err != nil {
		return nil, [32]byte{}, err
	}
	return bundle.Parse()
}
