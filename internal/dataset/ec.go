package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"phocus/internal/embed"
	"phocus/internal/imagesim"
	"phocus/internal/par"
	"phocus/internal/pool"
	"phocus/internal/search"
)

// ECSpec configures the e-commerce generator (Section 5.2, "E-Commerce
// Dataset"): a synthetic product catalog with rendered product photos, a
// Zipf-distributed query log, and pre-defined subsets built from the
// top-NumQueries queries via the internal search engine — retrieval scores
// become relevance, query frequencies become importance, photo costs come
// from the synthetic JPEG size model.
type ECSpec struct {
	// Domain is one of "Fashion", "Electronics", "Home & Garden".
	Domain string
	// NumProducts is the catalog size (default 24000, which after retrieval
	// yields roughly the paper's ~20K photos).
	NumProducts int
	// NumQueries is the number of pre-defined subsets (paper: 250).
	NumQueries int
	// TopK is the number of results retained per query (default 150).
	TopK int
	// ZipfS is the query-frequency skew (default 1.0).
	ZipfS float64
	// Seed drives all randomness.
	Seed int64
}

func (s *ECSpec) fill() error {
	if _, ok := domainVocab[s.Domain]; !ok {
		return fmt.Errorf("dataset: unknown EC domain %q", s.Domain)
	}
	if s.NumProducts == 0 {
		s.NumProducts = 24_000
	}
	if s.NumQueries == 0 {
		s.NumQueries = 250
	}
	if s.TopK == 0 {
		s.TopK = 150
	}
	if s.ZipfS == 0 {
		s.ZipfS = 1.0
	}
	return nil
}

// vocab is the word material of one e-commerce domain.
type vocab struct {
	brands, attrs, types []string
}

var domainVocab = map[string]vocab{
	"Fashion": {
		brands: []string{"Adidas", "Nike", "Zara", "Levis", "Gucci", "Uniqlo", "Puma", "HM"},
		attrs:  []string{"black", "red", "white", "blue", "slim", "sports", "casual", "buttoned", "vintage", "summer"},
		types:  []string{"shirt", "dress", "jeans", "sneakers", "jacket", "skirt", "hoodie", "coat", "boots", "scarf"},
	},
	"Electronics": {
		brands: []string{"Samsung", "Apple", "Sony", "LG", "Lenovo", "Asus", "Canon", "Bose"},
		attrs:  []string{"wireless", "4k", "gaming", "portable", "smart", "compact", "pro", "mini", "ultra", "budget"},
		types:  []string{"smartphone", "laptop", "headphones", "monitor", "camera", "tablet", "speaker", "router", "keyboard", "drone"},
	},
	"Home & Garden": {
		brands: []string{"Ikea", "Bosch", "Dyson", "Philips", "Gardena", "Weber", "Tefal", "Karcher"},
		attrs:  []string{"wooden", "ergonomic", "foldable", "outdoor", "modern", "rustic", "compact", "ceramic", "steel", "cozy"},
		types:  []string{"chair", "table", "lamp", "grill", "sofa", "planter", "shelf", "mower", "kettle", "rug"},
	},
}

// Domains lists the three EC domains in the paper's order.
func Domains() []string { return []string{"Electronics", "Fashion", "Home & Garden"} }

// ECSpecs returns the three Table 2 e-commerce specs, scaled like
// PublicSpecs.
func ECSpecs(scale float64) []ECSpec {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	specs := make([]ECSpec, 0, 3)
	for i, dom := range Domains() {
		np := int(24_000 * scale)
		if np < 60 {
			np = 60
		}
		nq := int(250 * scale)
		if nq < 12 {
			nq = 12
		}
		topK := int(150 * scale)
		if topK < 8 {
			topK = 8
		}
		specs = append(specs, ECSpec{
			Domain:      dom,
			NumProducts: np,
			NumQueries:  nq,
			TopK:        topK,
			Seed:        200 + int64(i),
		})
	}
	return specs
}

// facetDim is the dimension of each semantic facet block (type, brand,
// attribute) of an EC photo embedding.
const facetDim = 24

// boundFacetWeight is the context mask weight on facet blocks bound by the
// query. On an "Adidas" landing page every photo shares the brand facet, so
// in-page similarity is judged on the free facets (type, attributes,
// look); a photo showing the right product type is a good stand-in there,
// while on a "shirt" page the brand and attribute facets dominate. The
// paper's iPhone example (a model-number photo is valuable on a
// model-comparison page but not on a generic smartphones page) is this
// effect — and it is exactly what a single non-contextual similarity
// (Greedy-NCS) cannot express.
const boundFacetWeight = 0.1

// GenerateEC builds one e-commerce dataset.
func GenerateEC(spec ECSpec) (*Dataset, error) {
	if err := spec.fill(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	voc := domainVocab[spec.Domain]

	// One visual category per (type, brand) pair: products of the same type
	// and brand look alike (the redundancy PHOcus exploits), while a landing
	// page for a broad query mixes several visual clusters — so WHICH
	// representatives are kept matters, as in the paper's catalogs.
	genCfg := imagesim.DefaultGenConfig()
	embCfg := imagesim.DefaultEmbeddingConfig()
	cats := make([]*imagesim.CategoryModel, len(voc.types)*len(voc.brands))
	for ti, ty := range voc.types {
		for bi, br := range voc.brands {
			cats[ti*len(voc.brands)+bi] = imagesim.NewCategoryModel(rng, br+" "+ty)
		}
	}

	// Facet prototypes: every product type, brand and attribute owns a
	// random direction in its facet block. A photo's embedding concatenates
	// its type, brand and (mean) attribute facets with the visual feature
	// vector of its rendered image — the structured analog of the paper's
	// product-aware image embeddings.
	typeVecs := make([]embed.Vector, len(voc.types))
	for i := range typeVecs {
		typeVecs[i] = embed.RandomUnit(rng, facetDim)
	}
	brandVecs := make([]embed.Vector, len(voc.brands))
	for i := range brandVecs {
		brandVecs[i] = embed.RandomUnit(rng, facetDim)
	}
	attrVecs := make([]embed.Vector, len(voc.attrs))
	for i := range attrVecs {
		attrVecs[i] = embed.RandomUnit(rng, facetDim)
	}

	// Catalog: titles plus rendered photos. The sequential pass consumes
	// the shared rng (rendering, facet perturbations) so generation stays
	// deterministic; the expensive pure work — visual feature extraction —
	// runs in a second, parallel pass.
	titles := make([]string, spec.NumProducts)
	photos := make([]*imagesim.Photo, spec.NumProducts)
	vectors := make([]embed.Vector, spec.NumProducts)
	semantic := make([]embed.Vector, spec.NumProducts)
	docs := make([]search.Document, spec.NumProducts)
	for p := 0; p < spec.NumProducts; p++ {
		ti := rng.Intn(len(voc.types))
		bi := rng.Intn(len(voc.brands))
		a1 := rng.Intn(len(voc.attrs))
		a2 := rng.Intn(len(voc.attrs))
		titles[p] = fmt.Sprintf("%s %s %s %s", voc.brands[bi], voc.attrs[a1], voc.attrs[a2], voc.types[ti])
		ci := ti*len(voc.brands) + bi
		photos[p] = cats[ci].Generate(rng, p, genCfg)
		photos[p].Category = ci
		attrMix := embed.Normalize(embed.Add(attrVecs[a1], attrVecs[a2]))
		sem := make(embed.Vector, 0, 3*facetDim)
		sem = append(sem, embed.Perturb(rng, typeVecs[ti], 0.05)...)
		sem = append(sem, embed.Perturb(rng, brandVecs[bi], 0.05)...)
		sem = append(sem, attrMix...)
		semantic[p] = sem
		docs[p] = search.Document{ID: p, Text: titles[p]}
	}
	pool.ForEach(spec.NumProducts, 0, func(p int) {
		// The visual block is scaled down so the semantic facets carry most
		// of the similarity signal: product photos of the same type/brand
		// look alike anyway, and the facets are what the per-page contexts
		// reweight.
		visual := embed.Scale(imagesim.Embedding(photos[p].Image, embCfg), 0.4)
		v := make(embed.Vector, 0, 3*facetDim+len(visual))
		v = append(v, semantic[p]...)
		v = append(v, visual...)
		vectors[p] = embed.Normalize(v)
	})
	index := search.NewIndex(docs)

	// Query log: generated query strings with Zipf frequencies; the top
	// NumQueries distinct queries become pre-defined subsets.
	queries := buildQueries(rng, voc, spec.NumQueries)
	freqs := zipfWeights(len(queries), spec.ZipfS)

	// Retrieve, collect the union of result photos, and remap IDs densely.
	remap := map[int]par.PhotoID{}
	var keep []int
	type subsetDraft struct {
		name    string
		weight  float64
		hits    []search.Hit
		context embed.Context
	}
	var drafts []subsetDraft
	for qi, q := range queries {
		hits := index.Search(q, spec.TopK)
		if len(hits) == 0 {
			continue
		}
		for _, h := range hits {
			if _, ok := remap[h.ID]; !ok {
				remap[h.ID] = par.PhotoID(len(keep))
				keep = append(keep, h.ID)
			}
		}
		drafts = append(drafts, subsetDraft{
			name:    q,
			weight:  freqs[qi],
			hits:    hits,
			context: queryContext(rng, q, voc, 3*facetDim+embCfg.Dim()),
		})
	}
	if len(drafts) == 0 {
		return nil, fmt.Errorf("dataset: EC %s produced no subsets", spec.Domain)
	}

	inst := &par.Instance{Cost: make([]float64, len(keep))}
	ds := &Dataset{
		Name:     "EC-" + spec.Domain,
		Instance: inst,
		Global:   make([]embed.Vector, len(keep)),
		Photos:   make([]*imagesim.Photo, len(keep)),
	}
	for newID, oldID := range keep {
		inst.Cost[newID] = photos[oldID].SizeBytes
		ds.Global[newID] = vectors[oldID]
		ds.Photos[newID] = photos[oldID]
	}
	var totalFreq float64
	for _, d := range drafts {
		totalFreq += d.weight
	}
	// Relevance combines the retrieval score with the photo's visual
	// quality, as in Section 5.1 ("based both on the quality of the image
	// ... and the relevance score of the product").
	quality := make([]float64, len(keep))
	for newID := range keep {
		quality[newID] = 0.5 + 0.5*imagesim.QualityScore(ds.Photos[newID].Image)
	}
	for _, d := range drafts {
		members := make([]par.PhotoID, len(d.hits))
		rel := make([]float64, len(d.hits))
		ctxVecs := make([]embed.Vector, len(d.hits))
		for i, h := range d.hits {
			id := remap[h.ID]
			members[i] = id
			rel[i] = h.Score * quality[id]
			ctxVecs[i] = d.context.Apply(embed.Clone(ds.Global[id]))
		}
		inst.Subsets = append(inst.Subsets, par.Subset{
			Name:      d.name,
			Weight:    d.weight / totalFreq,
			Members:   members,
			Relevance: rel,
			Sim:       vecSim{vecs: ctxVecs},
		})
		ds.CtxVectors = append(ds.CtxVectors, ctxVecs)
	}
	inst.NormalizeRelevance()
	inst.Budget = inst.TotalCost()
	if err := inst.Finalize(); err != nil {
		return nil, fmt.Errorf("dataset: EC %s: %w", spec.Domain, err)
	}
	return ds, nil
}

// queryContext derives the contextual-similarity mask of one landing page.
// Facet blocks bound by the query's terms are down-weighted (every photo on
// the page shares them — their contribution is a constant), and the FREE
// facets get a query-specific emphasis: on one shirts page what matters is
// the brand, on another the style attributes, on a model-comparison page
// the fine visual details (the paper's iPhone example). That per-page
// trade-off between facets is precisely what a single non-contextual
// similarity cannot represent.
func queryContext(rng *rand.Rand, q string, voc vocab, dim int) embed.Context {
	mask := make(embed.Vector, dim)
	for i := range mask {
		mask[i] = 1
	}
	terms := map[string]bool{}
	for _, tok := range strings.Fields(strings.ToLower(q)) {
		terms[tok] = true
	}
	bound := make([]bool, 3)
	mark := func(block int) { bound[block] = true }
	for _, ty := range voc.types {
		if terms[strings.ToLower(ty)] {
			mark(0)
		}
	}
	for _, b := range voc.brands {
		if terms[strings.ToLower(b)] {
			mark(1)
		}
	}
	for _, a := range voc.attrs {
		if terms[strings.ToLower(a)] {
			mark(2)
		}
	}
	emphasis := []float64{0.25, 1, 8}
	setBlock := func(block int, w float64) {
		for i := block * facetDim; i < (block+1)*facetDim; i++ {
			mask[i] = w
		}
	}
	for block := 0; block < 3; block++ {
		if bound[block] {
			setBlock(block, boundFacetWeight)
			continue
		}
		setBlock(block, emphasis[rng.Intn(len(emphasis))])
	}
	// Visual block emphasis: some pages are about the look, others not.
	visW := emphasis[rng.Intn(len(emphasis))]
	for i := 3 * facetDim; i < dim; i++ {
		mask[i] = visW
	}
	return embed.Context{Mask: mask}
}

// buildQueries produces n distinct query strings over the vocabulary,
// mixing "type", "attr type", "brand type" and "brand attr type" shapes in
// popularity order (short, generic queries first — they are the frequent
// ones in real logs).
func buildQueries(rng *rand.Rand, voc vocab, n int) []string {
	seen := map[string]bool{}
	var queries []string
	add := func(q string) {
		q = strings.ToLower(q)
		if !seen[q] && len(queries) < n {
			seen[q] = true
			queries = append(queries, q)
		}
	}
	for _, ty := range voc.types {
		add(ty)
	}
	// Deterministically shuffle combination orders with rng so different
	// seeds give different query mixes.
	attrs := append([]string(nil), voc.attrs...)
	brands := append([]string(nil), voc.brands...)
	rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	rng.Shuffle(len(brands), func(i, j int) { brands[i], brands[j] = brands[j], brands[i] })
	// Broad single-term queries ("black", "Adidas") span product types and
	// yield visually heterogeneous landing pages — frequent in real logs.
	for _, b := range brands {
		add(b)
	}
	for _, a := range attrs {
		add(a)
	}
	for _, a := range attrs {
		for _, ty := range voc.types {
			add(a + " " + ty)
		}
	}
	for _, b := range brands {
		for _, ty := range voc.types {
			add(b + " " + ty)
		}
	}
	for _, b := range brands {
		for _, a := range attrs {
			for _, ty := range voc.types {
				add(b + " " + a + " " + ty)
			}
		}
	}
	return queries
}
