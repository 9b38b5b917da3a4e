// Command mediansim runs a single stabilizing-consensus simulation from
// command-line flags and prints the per-round trajectory and the outcome.
//
// Examples:
//
//	mediansim -n 100000                       # median rule, worst case
//	mediansim -n 10000 -m 16 -init uniform    # average case, 16 values
//	mediansim -n 10000 -rule minimum -adversary reviver
//	mediansim -n 1000000 -init twovalue -engine count -adversary balancer -budget sqrt
//
// The message-passing network model is not a mediansim engine; it is the
// simulation service's gossip kind:
//
//	consensusctl submit -kind gossip -n 10000 -wait
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/adversary"
	"repro/consensus"
	"repro/internal/plot"
	"repro/rules"
)

func main() {
	n := flag.Int("n", 10000, "number of processes")
	m := flag.Int("m", 0, "number of initial values (0 = n, all distinct)")
	initKind := flag.String("init", "distinct", "initial state: distinct, uniform, twovalue, blocks")
	ruleName := flag.String("rule", "median", "rule: median, majority, minimum, maximum, mean, voter, kmedian2")
	advName := flag.String("adversary", "none", "adversary: none, balancer, reviver, hider, flipper, noise, splitter")
	budget := flag.String("budget", "sqrt", "adversary budget: sqrt, sqrtlog, or an integer")
	engine := flag.String("engine", "auto", "engine: "+strings.Join(consensus.EngineNames(), ", ")+" (message passing: consensusctl submit -kind gossip)")
	seed := flag.Uint64("seed", 1, "random seed")
	maxRounds := flag.Int("rounds", 0, "round cap (0 = default)")
	slack := flag.Int("slack", -1, "almost-stable slack (-1 = 3*sqrt(n) when adversarial, else none)")
	trace := flag.Bool("trace", false, "print the per-round distribution")
	workers := flag.Int("workers", 0, "parallel workers for the ball engine")
	flag.Parse()

	rule, err := parseRule(*ruleName)
	if err != nil {
		fatal(err)
	}
	adv, err := parseAdversary(*advName, *budget)
	if err != nil {
		fatal(err)
	}
	values, err := parseInit(*initKind, *n, *m, *seed)
	if err != nil {
		fatal(err)
	}
	eng, err := consensus.EngineByName(*engine)
	if err != nil {
		fatal(err)
	}
	almostSlack := 0
	if *slack >= 0 {
		almostSlack = *slack
	} else if adv != nil {
		almostSlack = 3 * adversaryBudget(adv, *n)
	}

	cfg := consensus.Config{
		Values:      values,
		Rule:        rule,
		Adversary:   adv,
		Seed:        *seed,
		MaxRounds:   *maxRounds,
		AlmostSlack: almostSlack,
		Engine:      eng,
		Workers:     *workers,
	}
	var supportSeries, pluralitySeries []float64
	if *trace {
		cfg.Observer = func(round int, vals []consensus.Value, counts []int64) {
			var top, total int64
			for _, c := range counts {
				total += c
				if c > top {
					top = c
				}
			}
			supportSeries = append(supportSeries, float64(len(vals)))
			pluralitySeries = append(pluralitySeries, float64(top)/float64(total))
			var parts []string
			shown := len(vals)
			if shown > 8 {
				shown = 8
			}
			for i := 0; i < shown; i++ {
				parts = append(parts, fmt.Sprintf("%d:%d", vals[i], counts[i]))
			}
			suffix := ""
			if len(vals) > shown {
				suffix = fmt.Sprintf(" …(+%d bins)", len(vals)-shown)
			}
			fmt.Printf("round %4d  support %5d  %s%s\n", round, len(vals), strings.Join(parts, " "), suffix)
		}
	}

	fmt.Printf("n=%d rule=%s adversary=%s engine=%v seed=%d\n",
		*n, rule.Name(), adversary.String(adv, *n), *engine, *seed)
	res := consensus.Run(cfg)
	fmt.Println(res)
	if *trace && len(supportSeries) > 1 {
		fmt.Printf("\ndistinct values per round:   %s\n", plot.Spark(supportSeries))
		fmt.Printf("plurality share per round:   %s\n", plot.Spark(pluralitySeries))
		fmt.Println("\nplurality share trajectory:")
		for _, row := range plot.LabeledLine(pluralitySeries, 60, 8) {
			fmt.Println("  " + row)
		}
	}
}

func adversaryBudget(a consensus.Adversary, n int) int { return a.Budget(n) }

func parseRule(name string) (consensus.Rule, error) {
	switch name {
	case "median":
		return rules.Median{}, nil
	case "majority":
		return rules.Majority{}, nil
	case "minimum":
		return rules.Minimum{}, nil
	case "maximum":
		return rules.Maximum{}, nil
	case "mean":
		return rules.Mean{}, nil
	case "voter":
		return rules.Voter{}, nil
	case "kmedian2":
		return rules.NewKMedian(2), nil
	}
	return nil, fmt.Errorf("unknown rule %q", name)
}

func parseBudget(s string) (adversary.BudgetFunc, error) {
	switch s {
	case "sqrt":
		return adversary.Sqrt(1), nil
	case "sqrtlog":
		return adversary.SqrtLog(1), nil
	}
	var t int
	if _, err := fmt.Sscanf(s, "%d", &t); err != nil || t < 0 {
		return nil, fmt.Errorf("bad budget %q (want sqrt, sqrtlog or a non-negative integer)", s)
	}
	return adversary.Fixed(t), nil
}

func parseAdversary(name, budget string) (consensus.Adversary, error) {
	if name == "none" {
		return nil, nil
	}
	b, err := parseBudget(budget)
	if err != nil {
		return nil, err
	}
	switch name {
	case "balancer":
		return adversary.NewBalancer(b, 0, 0), nil
	case "reviver":
		return adversary.NewReviver(1, 20), nil
	case "hider":
		return adversary.NewHider(b, 1), nil
	case "flipper":
		return adversary.NewFlipper(b, 1, 2), nil
	case "noise":
		return adversary.NewRandomNoise(b), nil
	case "splitter":
		return adversary.NewMedianSplitter(b), nil
	}
	return nil, fmt.Errorf("unknown adversary %q", name)
}

func parseInit(kind string, n, m int, seed uint64) ([]consensus.Value, error) {
	if m <= 0 {
		m = n
	}
	switch kind {
	case "distinct":
		return consensus.AllDistinct(n), nil
	case "uniform":
		return consensus.UniformRandom(n, m, seed), nil
	case "twovalue":
		return consensus.TwoValue(n, n/2, 1, 2), nil
	case "blocks":
		return consensus.EvenBlocks(n, m), nil
	}
	return nil, fmt.Errorf("unknown init %q", kind)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mediansim:", err)
	os.Exit(2)
}
