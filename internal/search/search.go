// Package search is the retrieval substrate of PHOcus' Data Representation
// Module: when pre-defined subsets are specified as queries ("Paris
// vacation", "Nike red shirts" — input mode 2 of Section 5.1), an internal
// search engine turns each query into a ranked photo list whose retrieval
// scores become the subset's relevance scores. This implementation is a
// classic inverted index with TF-IDF weighting and cosine ranking over the
// photos' textual metadata (titles, labels).
package search

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// Document is one indexable item: a photo's textual surrogate.
type Document struct {
	ID   int
	Text string
}

// Hit is one ranked retrieval result.
type Hit struct {
	ID    int
	Score float64
}

// Index is an immutable inverted index. Build with NewIndex.
type Index struct {
	postings map[string][]posting
	docNorm  map[int]float64
	numDocs  int
}

type posting struct {
	doc int
	tf  float64
}

// Tokenize lowercases and splits on any non-letter/non-digit rune.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// NewIndex builds the index over the documents.
func NewIndex(docs []Document) *Index {
	ix := &Index{
		postings: make(map[string][]posting),
		docNorm:  make(map[int]float64),
		numDocs:  len(docs),
	}
	for _, d := range docs {
		counts := map[string]float64{}
		for _, tok := range Tokenize(d.Text) {
			counts[tok]++
		}
		for tok, c := range counts {
			// Log-scaled term frequency.
			ix.postings[tok] = append(ix.postings[tok], posting{doc: d.ID, tf: 1 + math.Log(c)})
		}
	}
	// Document norms under TF-IDF weights for cosine normalization. The
	// squares are summed in token order: map order would change the sum's
	// rounding, and with it the ranking of near-tied documents, from one
	// build to the next.
	toks := make([]string, 0, len(ix.postings))
	for tok := range ix.postings {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		idf := ix.idf(tok)
		for _, p := range ix.postings[tok] {
			w := p.tf * idf
			ix.docNorm[p.doc] += w * w
		}
	}
	for d, n := range ix.docNorm {
		ix.docNorm[d] = math.Sqrt(n)
	}
	return ix
}

// idf returns the smoothed inverse document frequency of a token.
func (ix *Index) idf(tok string) float64 {
	df := len(ix.postings[tok])
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(ix.numDocs)/float64(df))
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return ix.numDocs }

// Search returns up to k documents ranked by TF-IDF cosine similarity to
// the query, highest first, ties broken by ascending document ID. Scores
// are in (0, 1]; documents sharing no token with the query are omitted.
func (ix *Index) Search(query string, k int) []Hit {
	// Distinct query tokens in first-occurrence order: the sums below run
	// in that order so every search of one query rounds identically.
	var toks []string
	qcounts := map[string]float64{}
	for _, tok := range Tokenize(query) {
		if qcounts[tok] == 0 {
			toks = append(toks, tok)
		}
		qcounts[tok]++
	}
	if len(toks) == 0 {
		return nil
	}
	var qnorm float64
	scores := map[int]float64{}
	for _, tok := range toks {
		c := qcounts[tok]
		idf := ix.idf(tok)
		if idf == 0 {
			continue
		}
		qw := (1 + math.Log(c)) * idf
		qnorm += qw * qw
		for _, p := range ix.postings[tok] {
			scores[p.doc] += qw * p.tf * idf
		}
	}
	if qnorm == 0 {
		return nil
	}
	qnorm = math.Sqrt(qnorm)
	hits := make([]Hit, 0, len(scores))
	for doc, s := range scores {
		hits = append(hits, Hit{ID: doc, Score: s / (qnorm * ix.docNorm[doc])})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}
