package sim

import (
	"fmt"
	"strings"

	"agnopol/internal/stats"
)

// TableRow is one chain's row in Tables 5.1–5.4.
type TableRow struct {
	Testnet string
	Mean    float64
	Max     float64
	Min     float64
	StdDev  float64
	Fees    string
	Euro    float64
}

// Table is a reproduced thesis table.
type Table struct {
	Caption string
	Op      string // "deploy" | "attach"
	Users   int
	Rows    []TableRow
}

// String renders the table in the thesis format.
func (t *Table) String() string {
	headers := []string{"Testnet", "Mean", "Max", "Min", "Dev Std", "Fees", "Euro"}
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Testnet,
			stats.FormatSeconds(r.Mean),
			stats.FormatSeconds(r.Max),
			stats.FormatSeconds(r.Min),
			stats.FormatSeconds(r.StdDev),
			r.Fees,
			fmt.Sprintf("€%.4g", r.Euro),
		})
	}
	return fmt.Sprintf("%s\n%s", t.Caption, stats.Table(headers, rows))
}

// summaryOf picks the series for an operation.
func summaryOf(r *Result, op string) (stats.Summary, string, float64) {
	switch op {
	case "deploy":
		return r.DeploySummary, r.DeployFees.String(), r.DeployFees.Euros()
	default:
		return r.AttachSummary, r.AttachFees.String(), r.AttachFees.Euros()
	}
}

// BuildTable reproduces one of Tables 5.1–5.4: the given operation with the
// given user count, one row per chain. Results for the three chains must
// come from runs with the same user count.
func BuildTable(op string, users int, results map[ChainName]*Result) *Table {
	num := map[string]string{
		"deploy16": "Table 5.1", "deploy32": "Table 5.2",
		"attach16": "Table 5.3", "attach32": "Table 5.4",
	}[fmt.Sprintf("%s%d", op, users)]
	if num == "" {
		num = "Table"
	}
	t := &Table{
		Caption: fmt.Sprintf("%s — performances of the %s operation, with %d users", num, op, users),
		Op:      op,
		Users:   users,
	}
	label := map[ChainName]string{
		ChainGoerli: "Goerli", ChainPolygon: "Polygon", ChainAlgorand: "Algorand",
		ChainRopsten: "Ropsten",
	}
	for _, c := range AllChains {
		r, ok := results[c]
		if !ok {
			continue
		}
		s, fees, euro := summaryOf(r, op)
		t.Rows = append(t.Rows, TableRow{
			Testnet: label[c],
			Mean:    s.Mean, Max: s.Max, Min: s.Min, StdDev: s.StdDev,
			Fees: fees, Euro: euro,
		})
	}
	return t
}

// Figure is a reproduced per-user bar figure (Figs. 5.2–5.5).
type Figure struct {
	Caption string
	Chain   ChainName
	Users   int
	// Values[i] is user i's total interaction time in seconds; the first
	// Users/UsersPerContract entries are deploys.
	Values   []float64
	Deployed []bool
}

// FigureFromResult converts a run into a figure.
func FigureFromResult(caption string, r *Result) *Figure {
	f := &Figure{Caption: caption, Chain: r.Chain, Users: r.Users}
	f.Values = make([]float64, len(r.Measurements))
	f.Deployed = make([]bool, len(r.Measurements))
	for _, m := range r.Measurements {
		f.Values[m.User] = m.Latency.Seconds()
		f.Deployed[m.User] = m.Deployed
	}
	return f
}

// String renders the figure as an ASCII bar chart, deploys marked with *.
func (f *Figure) String() string {
	labels := make([]string, len(f.Values))
	for i := range f.Values {
		mark := " "
		if f.Deployed[i] {
			mark = "*" // deploy bars, like the first bars of the figures
		}
		labels[i] = fmt.Sprintf("user %2d%s", i, mark)
	}
	var sb strings.Builder
	sb.WriteString(stats.BarChart(f.Caption, labels, f.Values, "s"))
	sb.WriteString("  (* = deploy operation)\n")
	return sb.String()
}

// FigureCaptions maps the thesis figure numbers to chain and user count.
type FigureSpec struct {
	ID    string
	Chain ChainName
	Users int
}

// FigureSpecs enumerates Figs. 5.2–5.5 (a–d).
var FigureSpecs = []FigureSpec{
	{ID: "Fig 5.2 — Ethereum Ropsten testnet: performance of 8 transactions", Chain: ChainRopsten, Users: 8},
	{ID: "Fig 5.3a — Goerli: performances with 8 users", Chain: ChainGoerli, Users: 8},
	{ID: "Fig 5.3b — Goerli: performances with 16 users", Chain: ChainGoerli, Users: 16},
	{ID: "Fig 5.3c — Goerli: performances with 24 users", Chain: ChainGoerli, Users: 24},
	{ID: "Fig 5.3d — Goerli: performances with 32 users", Chain: ChainGoerli, Users: 32},
	{ID: "Fig 5.4a — Polygon: performances with 8 users", Chain: ChainPolygon, Users: 8},
	{ID: "Fig 5.4b — Polygon: performances with 16 users", Chain: ChainPolygon, Users: 16},
	{ID: "Fig 5.4c — Polygon: performances with 24 users", Chain: ChainPolygon, Users: 24},
	{ID: "Fig 5.4d — Polygon: performances with 32 users", Chain: ChainPolygon, Users: 32},
	{ID: "Fig 5.5a — Algorand: performances with 8 users", Chain: ChainAlgorand, Users: 8},
	{ID: "Fig 5.5b — Algorand: performances with 16 users", Chain: ChainAlgorand, Users: 16},
	{ID: "Fig 5.5c — Algorand: performances with 24 users", Chain: ChainAlgorand, Users: 24},
	{ID: "Fig 5.5d — Algorand: performances with 32 users", Chain: ChainAlgorand, Users: 32},
}

// RunFigure executes the run behind one figure spec.
func RunFigure(spec FigureSpec, seed uint64) (*Figure, *Result, error) {
	r, err := Execute(Spec{Chain: spec.Chain, Users: spec.Users, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	return FigureFromResult(spec.ID, r.Result), r.Result, nil
}
