package bench

import (
	"encoding/json"
	"testing"
	"time"
)

// goldenTable has a param, a duration, a ratio, and a row missing one
// of the other row's fields.
var goldenTable = Table{
	Name:  "golden",
	Title: "GOLDEN — two rows",
	Note:  "second row has no re-execution time",
	Rows: []Row{
		{Name: "one", Params: []Field{count("lanes", 1)},
			Modeled: []Field{ns("time", 1234567*time.Nanosecond), num("occupancy", "ratio", 0.5),
				ns("reexec", 98765*time.Microsecond)}},
		{Name: "four", Params: []Field{count("lanes", 4)},
			Modeled: []Field{ns("time", 310*time.Microsecond), num("occupancy", "ratio", 0.987)}},
	},
}

func TestRenderGolden(t *testing.T) {
	const want = `GOLDEN — two rows

        param  modeled    modeled  modeled
        lanes     time  occupancy   reexec
   one      1  1.235ms       0.50  98.77ms
  four      4    310µs       0.99        -

second row has no re-execution time
`
	if got := goldenTable.Render(); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestJSONGolden(t *testing.T) {
	const want = `{"name":"golden","title":"GOLDEN — two rows","note":"second row has no re-execution time","rows":[` +
		`{"name":"one","params":[{"name":"lanes","unit":"count","value":1}],` +
		`"modeled":[{"name":"time","unit":"ns","value":1234567},{"name":"occupancy","unit":"ratio","value":0.5},` +
		`{"name":"reexec","unit":"ns","value":98765000}]},` +
		`{"name":"four","params":[{"name":"lanes","unit":"count","value":4}],` +
		`"modeled":[{"name":"time","unit":"ns","value":310000},{"name":"occupancy","unit":"ratio","value":0.987}]}]}`
	got, err := json.Marshal(goldenTable)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("json:\n%s\nwant:\n%s", got, want)
	}
}

func TestFieldFormats(t *testing.T) {
	for _, c := range []struct {
		f    Field
		want string
	}{
		{ns("t", 957), "957ns"},
		{ns("t", 99785655), "99.79ms"},
		{ns("t", 0), "0s"},
		{num("s", "x", 3.917), "3.92x"},
		{num("o", "%", -3.44), "-3.4%"},
		{num("r", "tx/s", 32.468), "32.5"},
		{num("b", "B", 1161216), "1161216"},
		{count("c", 6535.5), "6535.5"},
	} {
		if got := c.f.format(); got != c.want {
			t.Errorf("%+v formats as %q, want %q", c.f, got, c.want)
		}
	}
}
