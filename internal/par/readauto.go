package par

import (
	"bufio"
	"bytes"
	"io"
)

// ReadAutoVectors loads an instance in either supported format, sniffing
// the binary magic ("PAR1") and falling back to JSON, together with the
// optional per-subset context vectors. The binary format never carries
// vectors, so it always yields a nil vector slice.
func ReadAutoVectors(r io.Reader) (*Instance, [][][]float64, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err == nil && bytes.Equal(head, binaryMagic[:]) {
		inst, err := ReadBinary(br)
		return inst, nil, err
	}
	return ReadJSONVectors(br)
}
