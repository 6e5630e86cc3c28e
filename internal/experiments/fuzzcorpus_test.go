package experiments

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/pool"
)

// TestFuzzCorporaHoldTheSweep: FuzzParseScenario (internal/faultinject)
// and FuzzParseProgram (internal/jvm) are seeded with every scenario
// text and every program text the sweep cells — and so the golden
// traces — run.  The two seed files hold those texts, one
// strconv-quoted per line; this test checks them against the cells
// (regenerate with -update).
func TestFuzzCorporaHoldTheSweep(t *testing.T) {
	scenarios, programs := map[string]bool{}, map[string]bool{}
	add := func(faults string, prog func(int) *jvm.Program) func(int) *jvm.Program {
		scenarios[fmt.Sprintf("seed = %d\n%s", goldenSeed, faults)] = true
		if prog == nil {
			prog = func(int) *jvm.Program { return jvm.WellBehaved(time.Minute) }
		}
		programs[jvm.EncodeProgram(prog(0))] = true
		return prog
	}
	for _, c := range simCells() {
		prog := add(c.faults, c.prog)
		if c.setup == nil {
			continue
		}
		// A set-up may submit jobs of its own (the preemption
		// challenger, later in virtual time): run the cell bare to see
		// them.
		params := daemon.DefaultParams()
		if c.tune != nil {
			c.tune(&params)
		}
		p := pool.New(pool.Config{Seed: goldenSeed, Params: params, Machines: c.machines()})
		c.setup(p)
		p.SubmitJava(1, prog)
		p.Run(48 * time.Hour)
		for _, j := range p.Schedd.Jobs() {
			programs[jvm.EncodeProgram(j.Program)] = true
		}
	}
	checkCorpus(t, "../faultinject/testdata/sweep-scenarios.txt", scenarios)
	checkCorpus(t, "../jvm/testdata/sweep-programs.txt", programs)
}

func checkCorpus(t *testing.T, path string, texts map[string]bool) {
	t.Helper()
	var lines []string
	for s := range texts {
		lines = append(lines, strconv.Quote(s))
	}
	slices.Sort(lines)
	want := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fuzz seed file (run `go test ./internal/experiments -run TestFuzzCorporaHoldTheSweep -update`): %v", err)
	}
	if string(got) != want {
		t.Errorf("%s does not hold the sweep's %d texts (regenerate with -update)", path, len(texts))
	}
}
