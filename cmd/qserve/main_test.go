package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for qserve: re-executed with
// QSERVE_TEST_RUN_MAIN=1 it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("QSERVE_TEST_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSIGTERMRightAfterBootDrains signals qserve the moment it prints
// "serving on" — before the ops listener exists — and expects the drain
// path and exit 0, not death by the signal's default action.
func TestSIGTERMRightAfterBootDrains(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-ops", "127.0.0.1:0",
		"-cats", "2", "-percat", "20", "-dim", "3")
	cmd.Env = append(os.Environ(), "QSERVE_TEST_RUN_MAIN=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	var out strings.Builder
	r := bufio.NewReader(stdout)
	for {
		line, err := r.ReadString('\n')
		out.WriteString(line)
		if strings.HasPrefix(line, "serving on ") {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			break
		}
		if err != nil {
			t.Fatalf("qserve exited before serving: %v\n%s%s", err, out.String(), stderr.String())
		}
	}
	rest, _ := io.ReadAll(r)
	out.Write(rest)
	err = cmd.Wait()
	timer.Stop()
	if err != nil {
		t.Fatalf("qserve did not exit 0 after SIGTERM: %v\n%s%s", err, out.String(), stderr.String())
	}
	if s := out.String(); !strings.Contains(s, "terminated: draining...") || !strings.Contains(s, "drained in ") {
		t.Fatalf("no drain in output:\n%s", s)
	}
}

// TestRemovedBackendAndFlagsExitBeforeLoading: every removed flag —
// -backend and -ann-ef with the approximate backend, the others because
// each limit they set is now a fixed constant — must fail before any
// collection is loaded or any data directory is created, and -h must
// list exactly the kept flags.
func TestRemovedBackendAndFlagsExitBeforeLoading(t *testing.T) {
	type row struct {
		args    []string
		wantErr string
	}
	rows := []row{
		{[]string{"-backend", "ann"}, "flag provided but not defined: -backend"},
		{[]string{"-backend", "vafile"}, "flag provided but not defined: -backend"},
		{[]string{"-ann-ef", "64"}, "flag provided but not defined: -ann-ef"},
	}
	for _, name := range strings.Fields(`plan crash wal-batch wal-maxwait snapshot-bytes max-sessions session-ttl
		max-inflight queue-wait request-timeout drain-timeout ann-m ann-efc ann-seed slow-threshold slowlog`) {
		rows = append(rows, row{[]string{"-" + name, "1"}, "flag provided but not defined: -" + name})
	}
	for _, tc := range rows {
		data := t.TempDir() + "/data"
		cmd := exec.Command(os.Args[0], append(tc.args, "-addr", "127.0.0.1:0", "-data", data,
			"-dataset", "/nonexistent/collection.gob")...)
		cmd.Env = append(os.Environ(), "QSERVE_TEST_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("qserve %v exited 0:\n%s", tc.args, out)
		}
		if !strings.Contains(string(out), tc.wantErr) {
			t.Errorf("qserve %v: output lacks %q:\n%s", tc.args, tc.wantErr, out)
		}
		if strings.Contains(string(out), "loading") {
			t.Errorf("qserve %v tried to load the collection first:\n%s", tc.args, out)
		}
		if _, err := os.Stat(data); !os.IsNotExist(err) {
			t.Errorf("qserve %v created the data directory before refusing", tc.args)
		}
	}

	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), "QSERVE_TEST_RUN_MAIN=1")
	out, _ := cmd.CombinedOutput()
	var flags []string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok && !strings.HasPrefix(rest, "test.") { // the test binary's own
			flags = append(flags, strings.Fields(rest)[0])
		}
	}
	const want = "addr cats data dataset dim ops parallelism percat seed shards trace-log trace-sample"
	if got := strings.Join(flags, " "); got != want {
		t.Errorf("qserve -h lists %d flags:\n%s\nwant the 12 kept:\n%s", len(flags), got, want)
	}
}

// TestMix16CorpusDigest pins the synthetic collection the mix16_*
// benchmark workloads serve (-cats 1000 -percat 64 -dim 16, default
// seed): the harness keeps its own copy of this generator as its oracle,
// so the corpus must not drift. The digest is SHA-256 over every
// component's Float64bits, little-endian, in id order.
func TestMix16CorpusDigest(t *testing.T) {
	const want = "804dd53d7dc88453a8bedb7c44d230559796c6aed51450257bcd9565936977fe"
	vecs, err := loadVectors("", 1000, 64, 16, 2003)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range vecs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); len(vecs) != 64000 || got != want {
		t.Fatalf("corpus of %d vectors has digest %s, want 64000 vectors with %s", len(vecs), got, want)
	}
}
