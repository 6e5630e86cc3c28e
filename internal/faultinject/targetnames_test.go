package faultinject

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/pool"
)

// TestTargetNames pins the daemon names one pool assembly gives a
// standalone pool and the members of a federation, and the target keys
// derived from them.  Names are the only thing the shared builder
// varies by pool, and scenario sites address daemons by them: the
// unnamed pool must keep the bare names ("schedd", never "-schedd";
// "matchmaker", never "mm-").
func TestTargetNames(t *testing.T) {
	members := func(p *pool.Pool) string {
		flockd := "-"
		if p.Flockd != nil {
			flockd = p.Flockd.Name()
		}
		var schedds, startds []string
		for _, s := range p.Schedds {
			schedds = append(schedds, s.Name())
		}
		for _, sd := range p.Startds {
			startds = append(startds, sd.Name())
		}
		return fmt.Sprintf("name=%q mm=%s flockd=%s schedd=%s schedds=%v startds=%v",
			p.Name, p.Matchmaker.Name(), flockd, p.Schedd.Name(), schedds, startds)
	}
	keys := func(tg Targets) []string {
		var out []string
		for k := range tg.Startds {
			out = append(out, "startd "+k)
		}
		for k := range tg.Schedds {
			out = append(out, "schedd "+k)
		}
		for k := range tg.FileSystems {
			out = append(out, "fs "+k)
		}
		slices.Sort(out)
		return out
	}
	check := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %v\nwant %v", what, got, want)
		}
	}

	p := pool.New(pool.Config{Seed: 1, Params: daemon.DefaultParams(),
		Machines: pool.UniformMachines(2, 1024), Schedds: 2})
	check("standalone pool", members(p),
		`name="" mm=matchmaker flockd=- schedd=schedd schedds=[schedd schedd1] startds=[c000 c001]`)
	tg := PoolTargets(p)
	check("standalone targets", keys(tg), []string{
		"fs submit", "fs submit1", "schedd schedd", "schedd schedd1", "startd c000", "startd c001"})
	check("standalone pools", tg.Pools, map[string]PoolMembers(nil))

	fed := pool.NewFederation(pool.FederationConfig{
		Seed: 1, Params: daemon.DefaultParams(), FlockAfter: time.Minute,
		Pools: []pool.FedPoolConfig{
			{Name: "p1", Machines: pool.UniformMachines(2, 1024), Schedds: 2, FlockTo: []string{"p2"}},
			{Name: "p2", Machines: pool.UniformMachines(1, 1024)},
		},
	})
	check("member p1", members(fed.Pool("p1")),
		`name="p1" mm=mm-p1 flockd=flockd-p1 schedd=p1-schedd schedds=[p1-schedd p1-schedd1] startds=[p1-c000 p1-c001]`)
	check("member p2", members(fed.Pool("p2")),
		`name="p2" mm=mm-p2 flockd=- schedd=p2-schedd schedds=[p2-schedd] startds=[p2-c000]`)
	ft := FederationTargets(fed)
	check("federation targets", keys(ft), []string{
		"fs submit-p1-schedd", "fs submit-p1-schedd1", "fs submit-p2-schedd",
		"schedd p1-schedd", "schedd p1-schedd1", "schedd p2-schedd",
		"startd p1-c000", "startd p1-c001", "startd p2-c000"})
	check("federation pools", ft.Pools, map[string]PoolMembers{
		"p1": {Matchmaker: "mm-p1", Machines: []string{"p1-c000", "p1-c001"}},
		"p2": {Matchmaker: "mm-p2", Machines: []string{"p2-c000"}},
	})
}
