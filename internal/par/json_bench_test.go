package par_test

import (
	"testing"

	"phocus/internal/par"
)

// BenchmarkReadJSON decodes the P-1K wire body (~3 MB, 306 subsets) with
// the encoding/json reference decoder and with DecodeJSONVectors. MB/s is
// over the body bytes.
func BenchmarkReadJSON(b *testing.B) {
	body, err := p1kBody()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func([]byte) (*par.Instance, [][][]float64, error)
	}{
		{"stdlib", par.ReferenceDecodeJSONVectors},
		{"onepass", par.DecodeJSONVectors},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
