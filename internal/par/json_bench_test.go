package par_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"phocus/internal/par"
)

// BenchmarkReadJSON decodes the P-1K wire body (~3 MB, 306 subsets) with
// the encoding/json reference decoder, with DecodeJSONVectors on one
// goroutine (serial) and split over one decoder per CPU (onepass), and the
// same body run through json.Indent with DecodeJSONVectors: indented, no
// triple has WriteJSON's layout, so every one takes the general path (and
// no subset separator is WriteJSON's, so it decodes serially too).
// MB/s is over the body bytes.
func BenchmarkReadJSON(b *testing.B) {
	body, err := p1kBody()
	if err != nil {
		b.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, body, "", "  "); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		body   []byte
		decode func([]byte) (*par.Instance, [][][]float64, error)
	}{
		{"stdlib", body, par.ReferenceDecodeJSONVectors},
		{"serial", body, func(data []byte) (*par.Instance, [][][]float64, error) {
			return par.DecodeJSONVectorsSplit(data, 1, nil)
		}},
		{"onepass", body, par.DecodeJSONVectors},
		{"indented", indented.Bytes(), par.DecodeJSONVectors},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.decode(c.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
