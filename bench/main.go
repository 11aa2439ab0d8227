// Command bench is the repository's benchmark: six workloads driven through
// the public Engine API, each op checked against an oracle, reporting the
// end-to-end metrics of BENCHMARK.json and, in a traced run, the per-layer
// metrics. See README.md.
//
//	go run . -workload yago-cold -seed 1 -seconds 10 -trace 0  # one workload, one result line
//	go run .                                                   # all six, each in its own process
//	go run . -trace 1                                          # … plus traced runs and tracing overhead
//	go run . -compare a.json b.json                            # two result files against the bounds
//	go run . -write-expected expected.json                     # re-pin seed-1 inputs and results
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 10, "how long one run measures")
		trace        = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		scaleName    = flag.String("scale", "full", "input sizes: full or smoke")
		out          = flag.String("out", "", "directory for spill files, traces and results (default: a temp dir)")
		reps         = flag.Int("reps", 1, "with -workload all: runs per workload, so that the result file carries its own spread")
		resultPath   = flag.String("json", "", "with -workload all: where to write the result file (default <out>/result.json)")
		compare      = flag.Bool("compare", false, "compare the two result files given as arguments against the bounds")
		writePinned  = flag.String("write-expected", "", "recompute the pinned seed-1 inputs and oracle results into this file")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *writePinned != "" {
		if err := writeExpected(*writePinned); err != nil {
			return fail(err)
		}
		return 0
	}
	sc, ok := scales[*scaleName]
	if !ok {
		return fail(fmt.Errorf("unknown scale %q", *scaleName))
	}
	if *out == "" {
		dir, err := os.MkdirTemp("", "mura-bench-")
		if err != nil {
			return fail(err)
		}
		// Results and traces stay for the caller; an unused dir goes.
		defer func() {
			if os.Remove(dir) != nil {
				fmt.Println("output in", dir)
			}
		}()
		*out = dir
	} else if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}

	correct := false
	if *workloadName == "all" {
		if *resultPath == "" {
			*resultPath = filepath.Join(*out, "result.json")
		}
		var err error
		if correct, err = runAll(ctx, sc, *seed, *seconds, *trace != 0, *out, *reps, *resultPath); err != nil {
			return fail(err)
		}
	} else {
		w := findWorkload(*workloadName)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := runWorkload(ctx, runConfig{w: w, sc: sc, seed: *seed, seconds: *seconds, trace: *trace != 0, out: *out})
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		correct = res.Correct
	}
	if !correct {
		return 1
	}
	return 0
}

// diagPrefix marks the line a single-workload run prints its diagnostics
// on, for the parent of an all-workloads run to pick up. The last line of
// a run stays the result object alone.
const diagPrefix = "#diag "

func printDiag(name string, diag map[string]float64) {
	keys := make([]string, 0, len(diag))
	for k := range diag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s (diagnostic) %-24s %14.4f\n", name, k, diag[k])
	}
	line, err := json.Marshal(diag)
	if err != nil {
		return
	}
	fmt.Println(diagPrefix + string(line))
}

// resultFile is what an all-workloads run writes and -compare reads: per
// workload and metric, the value of every repetition.
type resultFile struct {
	Seed      int64                       `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Scale     string                      `json:"scale"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Units     map[string]string    `json:"units"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	Diag      map[string][]float64 `json:"diagnostics"`
	PerLayer  map[string][]float64 `json:"per_layer,omitempty"`
}

// runAll runs every workload in a child process of its own, so that no
// workload inherits another's heap, and collects the results.
func runAll(ctx context.Context, sc scale, seed int64, seconds float64, trace bool, out string, reps int, resultPath string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := resultFile{Seed: seed, Seconds: seconds, Scale: sc.name, Workloads: map[string]*workloadResults{}}
	allCorrect := true
	child := func(w *workload, traced int) (*runOutcome, map[string]float64, error) {
		cmd := exec.CommandContext(ctx, self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-scale", sc.name, "-out", out)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		var res runOutcome
		var diag map[string]float64
		last := ""
		lines := bufio.NewScanner(&stdout)
		lines.Buffer(nil, 1<<20)
		for lines.Scan() {
			if last != "" && !strings.HasPrefix(last, diagPrefix) {
				fmt.Println(last)
			}
			last = lines.Text()
			if strings.HasPrefix(last, diagPrefix) {
				if err := json.Unmarshal([]byte(last[len(diagPrefix):]), &diag); err != nil {
					return nil, nil, err
				}
			}
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return nil, nil, fmt.Errorf("%s: no result (%v)", w.name, runErr)
		}
		return &res, diag, nil
	}
	record := func(dst map[string][]float64, units map[string]string, metrics map[string]mvalue) {
		for name, m := range metrics {
			dst[name] = append(dst[name], m.Value)
			units[name] = m.Unit
		}
	}
	for _, w := range workloads {
		wr := &workloadResults{Units: map[string]string{}, EndToEnd: map[string][]float64{}, Diag: map[string][]float64{}}
		file.Workloads[w.name] = wr
		for rep := 0; rep < reps; rep++ {
			res, diag, err := child(w, 0)
			if err != nil {
				return false, err
			}
			allCorrect = allCorrect && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			record(wr.EndToEnd, wr.Units, res.Metrics)
			for k, v := range diag {
				wr.Diag[k] = append(wr.Diag[k], v)
			}
			if !trace {
				continue
			}
			tres, _, err := child(w, 1)
			if err != nil {
				return false, err
			}
			allCorrect = allCorrect && tres.Correct
			if wr.PerLayer == nil {
				wr.PerLayer = map[string][]float64{}
			}
			record(wr.PerLayer, wr.Units, tres.Metrics)
			untraced, traced := res.Metrics["op_ms_p50"].Value, tres.Metrics["repro.traced_op_ms_p50"].Value
			fmt.Printf("%s tracing overhead: op_ms_p50 %.4f ms traced vs %.4f ms untraced (%+.1f%%)\n",
				w.name, traced, untraced, 100*(traced-untraced)/untraced)
		}
	}
	data, err := json.MarshalIndent(&file, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(resultPath, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Println("wrote", resultPath)
	return allCorrect, nil
}
