package search

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

var corpus = []Document{
	{ID: 0, Text: "black Adidas sports shirt"},
	{ID: 1, Text: "black buttoned dress shirt"},
	{ID: 2, Text: "women's black shirt"},
	{ID: 3, Text: "red Nike running shoes"},
	{ID: 4, Text: "office chair ergonomic black"},
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Women's Black-Shirt,  size 42!")
	want := []string{"women", "s", "black", "shirt", "size", "42"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	if got := Tokenize("!!!"); len(got) != 0 {
		t.Errorf("Tokenize(punct) = %v, want empty", got)
	}
}

func TestSearchRanking(t *testing.T) {
	ix := NewIndex(corpus)
	hits := ix.Search("black shirt", 10)
	if len(hits) != 4 {
		t.Fatalf("got %d hits, want 4 (three shirts + black chair)", len(hits))
	}
	// All shirts must outrank the chair (it matches only "black").
	rank := map[int]int{}
	for i, h := range hits {
		rank[h.ID] = i
	}
	for _, shirt := range []int{0, 1, 2} {
		if rank[shirt] > rank[4] {
			t.Errorf("doc %d ranked below the chair: %v", shirt, hits)
		}
	}
	// Scores are in (0, 1] and descending.
	for i, h := range hits {
		if h.Score <= 0 || h.Score > 1+1e-12 {
			t.Errorf("score out of range: %v", h)
		}
		if i > 0 && h.Score > hits[i-1].Score {
			t.Errorf("hits not sorted: %v", hits)
		}
	}
}

func TestSearchTopK(t *testing.T) {
	ix := NewIndex(corpus)
	hits := ix.Search("black", 2)
	if len(hits) != 2 {
		t.Fatalf("k=2 returned %d hits", len(hits))
	}
	all := ix.Search("black", 0)
	if len(all) != 4 {
		t.Fatalf("k=0 should return all %d matches, got %d", 4, len(all))
	}
}

func TestSearchNoMatch(t *testing.T) {
	ix := NewIndex(corpus)
	if hits := ix.Search("submarine", 5); len(hits) != 0 {
		t.Errorf("unexpected hits %v", hits)
	}
	if hits := ix.Search("", 5); len(hits) != 0 {
		t.Errorf("empty query returned %v", hits)
	}
}

func TestExactDocumentScoresHighest(t *testing.T) {
	ix := NewIndex(corpus)
	hits := ix.Search("red Nike running shoes", 1)
	if len(hits) != 1 || hits[0].ID != 3 {
		t.Fatalf("hits = %v, want doc 3 first", hits)
	}
	// A query identical to a document has cosine 1 with it.
	if hits[0].Score < 0.999 {
		t.Errorf("self-query score = %g, want ≈1", hits[0].Score)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	ix := NewIndex([]Document{
		{ID: 7, Text: "alpha beta"},
		{ID: 3, Text: "alpha beta"},
	})
	hits := ix.Search("alpha", 2)
	if len(hits) != 2 || hits[0].ID != 3 || hits[1].ID != 7 {
		t.Errorf("tie break not by ID: %v", hits)
	}
}

func TestNumDocs(t *testing.T) {
	if NewIndex(corpus).NumDocs() != 5 {
		t.Error("NumDocs mismatch")
	}
}

// TestScoresReproducible: rebuilding the index and re-running a query must
// give the same scores bit for bit. Scores are float sums over tokens, so
// summing in map iteration order let their last bits, and with them the
// order of near-tied hits, vary between builds.
func TestScoresReproducible(t *testing.T) {
	words := []string{"red", "blue", "green", "shirt", "shoe", "nike", "puma", "slim", "loose", "cotton", "wool", "sport"}
	rng := rand.New(rand.NewSource(1))
	var docs []Document
	for d := 0; d < 200; d++ {
		var text []string
		for w := range words {
			if rng.Intn(w+2) == 0 {
				for r := rng.Intn(3); r >= 0; r-- {
					text = append(text, words[w])
				}
			}
		}
		docs = append(docs, Document{ID: d, Text: strings.Join(text, " ")})
	}
	query := strings.Join(words, " ")
	want := NewIndex(docs).Search(query, 0)
	for build := 0; build < 30; build++ {
		got := NewIndex(docs).Search(query, 0)
		if len(got) != len(want) {
			t.Fatalf("build %d: %d hits, want %d", build, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("build %d: hit %d = %+v, want %+v", build, i, got[i], want[i])
			}
		}
	}
}
