package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"text/tabwriter"
)

// benchEnv is the one header every result file carries: where and on
// what the numbers were taken.
type benchEnv struct {
	NumCPU            int     `json:"num_cpu"`
	HarnessGOMAXPROCS int     `json:"harness_gomaxprocs"` // for set-up and the in-process replay; 1 while driving sessions
	GoVersion         string  `json:"go_version"`
	Commit            string  `json:"commit"` // qserve's embedded VCS revision; "" outside a git checkout
	Seed              int64   `json:"seed"`
	Seconds           float64 `json:"seconds"`
	SetupReps         int     `json:"setup_reps"`
	WorkFS            string  `json:"work_fs"` // filesystem type of the scratch directory (WAL fsyncs land there)
}

// resultFile is what -out writes and -compare / -report read: the header
// and one entry per workload run, repeats included.
type resultFile struct {
	Env  benchEnv    `json:"benchenv"`
	Runs []runResult `json:"runs"`
}

// fsTypes names the filesystem magic numbers a scratch directory is
// likely to sit on; anything else is reported in hex.
var fsTypes = map[int64]string{
	0xef53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// newBenchEnv fills the harness's side of the header; qserve's commit is
// copied from a run's /healthz reading, and its GOMAXPROCS is per run.
func newBenchEnv(cfg runConfig) benchEnv {
	return benchEnv{
		NumCPU:            runtime.NumCPU(),
		HarnessGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:         runtime.Version(),
		Seed:              cfg.seed,
		Seconds:           cfg.seconds,
		SetupReps:         setupReps,
		WorkFS:            fsTypeOf(cfg.workDir),
	}
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func writeResultFile(path string, rf resultFile) error {
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printRun lists every metric of one run by name with its unit.
func printRun(w io.Writer, r runResult) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "== %s\tseed %d\t%d sessions\t%d attempted\t%d failed\n", r.Workload, r.Seed, r.Sessions, r.Attempted, r.Failed)
	for _, spec := range endToEnd {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t[bound %.0f%%]\n", spec.name, r.EndToEnd[spec.name], spec.unit, spec.bound*100)
	}
	if r.PerLayer != nil {
		for _, spec := range perLayer {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t\n", spec.name, r.PerLayer[spec.name], spec.unit)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "session p50 by block, ms: %.3g\n", r.BlockP50MS)
}

// samples groups a file's end-to-end values by workload and metric, in
// run order.
func (rf resultFile) samples() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range rf.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.EndToEnd {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share
// of the median — the acceptance check's measure. Fewer than two samples
// have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// worseBy is how much worse new is than base as a share of base: positive
// means a regression in the metric's own direction.
func worseBy(spec metricSpec, base, new float64) float64 {
	if spec.better == "higher" {
		return ratio(base-new, base)
	}
	return ratio(new-base, base)
}

// minRunsForSpread is how many runs a side needs before its own spread is
// taken as the measure of its noise.
const minRunsForSpread = 5

// verdict compares two sets of runs of one workload × metric. A metric
// whose run-to-run spread exceeds its bound cannot be resolved either
// way, unless every new run beats every base run. A gain must exceed the
// measured spread; with too few runs to measure one it must exceed the
// bound, like a regression.
func verdict(spec metricSpec, base, new []float64) string {
	worse := worseBy(spec, percentile(base, 50), percentile(new, 50))
	noise := max(spread(base), spread(new))
	if noise > spec.bound {
		if allBetter(spec, base, new) {
			return "improved"
		}
		return "unresolved"
	}
	resolution := spec.bound
	if len(base) >= minRunsForSpread && len(new) >= minRunsForSpread {
		resolution = noise
	}
	switch {
	case worse > spec.bound:
		return "regressed"
	case -worse > resolution:
		return "improved"
	default:
		return "unchanged"
	}
}

func allBetter(spec metricSpec, base, new []float64) bool {
	for _, b := range base {
		for _, n := range new {
			if worseBy(spec, b, n) >= 0 {
				return false
			}
		}
	}
	return true
}

// compare prints one row per workload × end-to-end metric and reports
// whether any row regressed or could not be resolved.
func compare(w io.Writer, basePath, newPath string) (clean bool, err error) {
	base, err := readResultFile(basePath)
	if err != nil {
		return false, err
	}
	new, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s: %+v\nnew  %s: %+v\n", basePath, base.Env, newPath, new.Env)
	bs, ns := base.samples(), new.samples()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\tspread\tbound\tverdict")
	clean = true
	for _, wl := range workloads() {
		for _, spec := range endToEnd {
			b, n := bs[wl.name][spec.name], ns[wl.name][spec.name]
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			v := verdict(spec, b, n)
			if v == "regressed" || v == "unresolved" {
				clean = false
			}
			bm, nm := percentile(b, 50), percentile(n, 50)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%.1f%%\t%.0f%%\t%s\n",
				wl.name, spec.name, spec.unit, bm, nm, ratio(nm, bm), 100*max(spread(b), spread(n)), 100*spec.bound, v)
		}
	}
	return clean, tw.Flush()
}

// report prints, as a markdown table, min / median / max and both spread
// measures per workload × end-to-end metric of one file's repeated runs.
func report(w io.Writer, path string) error {
	rf, err := readResultFile(path)
	if err != nil {
		return err
	}
	env, _ := json.Marshal(rf.Env)
	fmt.Fprintf(w, "benchenv: `%s`\n\n", env)
	fmt.Fprintln(w, "| workload | metric | unit | runs | min | median | max | (max−min)/median | IQR/median | bound |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	s := rf.samples()
	for _, wl := range workloads() {
		for _, spec := range endToEnd {
			xs := append([]float64(nil), s[wl.name][spec.name]...)
			if len(xs) == 0 {
				continue
			}
			sort.Float64s(xs)
			med := percentile(xs, 50)
			flag := ""
			if spread(xs) > spec.bound {
				flag = " **over**"
			}
			fmt.Fprintf(w, "| %s | %s | %s | %d | %.6g | %.6g | %.6g | %.1f%% | %.1f%%%s | %.0f%% |\n",
				wl.name, spec.name, spec.unit, len(xs), xs[0], med, xs[len(xs)-1],
				100*ratio(xs[len(xs)-1]-xs[0], med), 100*spread(xs), flag, 100*spec.bound)
		}
	}
	return nil
}

// contractLine is the last line of standard output in single-workload
// mode: the JSON object the driver reads.
func contractLine(r runResult, trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs, values := endToEnd, r.EndToEnd
	if trace {
		specs, values = perLayer, r.PerLayer
	}
	metrics := make(map[string]value, len(specs))
	for _, spec := range specs {
		metrics[spec.name] = value{values[spec.name], spec.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(line)
}

// runSeconds is the measured-phase length BENCHMARK.json asks the driver
// to pass as --seconds.
const runSeconds = 20

// benchmarkJSON renders BENCHMARK.json from the harness's own tables, so
// the driver's copy of the workloads, metrics and bounds cannot drift.
func benchmarkJSON() string {
	type entry map[string]any
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, entry{"name": w.name, "why": w.why})
	}
	for _, spec := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, entry{"name": spec.name, "unit": spec.unit, "better": spec.better, "bound": spec.bound})
	}
	for _, spec := range perLayer {
		doc.PerLayer = append(doc.PerLayer, entry{"name": spec.name, "unit": spec.unit, "better": spec.better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // strings and finite floats always marshal
	}
	return string(raw)
}
