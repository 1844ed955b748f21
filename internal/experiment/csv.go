package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV writers so experiment output can be re-plotted outside Go. One file
// per figure, long format (one row per observation).

// WriteUtilityCSV emits dataset,arm,round,accuracy rows (Figure 5) plus
// dataset,arm,round,participant,accuracy rows when per-client data exists
// (Figure 6).
func WriteUtilityCSV(w io.Writer, results []UtilityResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "arm", "round", "participant", "accuracy"}); err != nil {
		return fmt.Errorf("experiment: write csv header: %w", err)
	}
	for _, r := range results {
		for round, acc := range r.Accuracy {
			row := []string{r.Dataset, r.Arm, strconv.Itoa(round + 1), "mean", formatFloat(acc)}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("experiment: write csv row: %w", err)
			}
			if round < len(r.PerClient) {
				for pi, pacc := range r.PerClient[round] {
					row := []string{r.Dataset, r.Arm, strconv.Itoa(round + 1), strconv.Itoa(pi), formatFloat(pacc)}
					if err := cw.Write(row); err != nil {
						return fmt.Errorf("experiment: write csv row: %w", err)
					}
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteInferenceCSV emits dataset,arm,mode,ratio,round,inference_accuracy
// rows (Figures 7 and 8).
func WriteInferenceCSV(w io.Writer, results []InferenceResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "arm", "mode", "ratio", "round", "inference_accuracy", "chance"}); err != nil {
		return fmt.Errorf("experiment: write csv header: %w", err)
	}
	for _, r := range results {
		mode := "passive"
		if r.Active {
			mode = "active"
		}
		for round, acc := range r.InferenceAccuracy {
			row := []string{
				r.Dataset, r.Arm, mode,
				formatFloat(r.Ratio), strconv.Itoa(round + 1),
				formatFloat(acc), formatFloat(r.Chance),
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("experiment: write csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteNeighboursCSV emits dataset,participant,neighbours rows (Figure 9).
func WriteNeighboursCSV(w io.Writer, results []NeighbourResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "radius", "participant", "neighbours"}); err != nil {
		return fmt.Errorf("experiment: write csv header: %w", err)
	}
	for _, r := range results {
		for pi, n := range r.Neighbours {
			row := []string{r.Dataset, formatFloat(r.Radius), strconv.Itoa(pi), strconv.Itoa(n)}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("experiment: write csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePerfCSV emits the §6.5 table rows.
func WritePerfCSV(w io.Writer, results []PerfResult) error {
	cw := csv.NewWriter(w)
	header := []string{"model", "participants", "k", "update_bytes",
		"decrypt_ms", "store_ms", "mix_ms", "process_ms", "e2e_ms", "enclave_peak_bytes", "page_events"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiment: write csv header: %w", err)
	}
	for _, r := range results {
		row := []string{
			r.Model, strconv.Itoa(r.Participants), strconv.Itoa(r.K), strconv.Itoa(r.UpdateBytes),
			formatFloat(r.DecryptMillis), formatFloat(r.StoreMillis), formatFloat(r.MixMillis),
			formatFloat(r.ProcessMillis), formatFloat(r.EndToEndMillis),
			strconv.Itoa(r.EnclavePeakBytes), strconv.Itoa(r.PageEvents),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiment: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
