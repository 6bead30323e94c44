package vm

// Paged, word-addressed shared memory. Pages materialise on first touch
// and read as zero, so a fresh Memory is ready to use. A small
// direct-mapped cache of resident pages sits in front of the page map,
// so the loads and stores of a hot loop (its globals, heap block and
// stack top) do not pay a map lookup each.

const (
	pageShift = 12
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1

	cacheBits = 6 // 64 page-cache slots
)

type page [pageWords]int64

// cachedPage is one page-cache slot; p is nil when the slot is empty.
type cachedPage struct {
	pn int64
	p  *page
}

// Memory is the flat word-addressed address space shared by all threads of
// a machine. Read and Write both update the page cache, so a Memory must
// be used by one goroutine at a time, reads included.
type Memory struct {
	pages map[int64]*page
	cache [1 << cacheBits]cachedPage
}

// slot returns the cache slot for page pn (Fibonacci hashing: the stack
// tops of consecutive threads and the globals/heap pages spread out).
func (m *Memory) slot(pn int64) *cachedPage {
	return &m.cache[uint64(pn)*0x9e3779b97f4a7c15>>(64-cacheBits)]
}

// lookup returns the resident page pn, or nil, filling the cache on a hit.
func (m *Memory) lookup(pn int64) *page {
	s := m.slot(pn)
	if s.p != nil && s.pn == pn {
		return s.p
	}
	p := m.pages[pn]
	if p != nil {
		s.pn, s.p = pn, p
	}
	return p
}

// NewMemory returns an empty (all-zero) memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[int64]*page)}
}

// Read returns the word at addr. Unmapped memory reads as zero.
func (m *Memory) Read(addr int64) int64 {
	p := m.lookup(addr >> pageShift)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Pages returns the number of resident (touched) pages; Limits.MaxPages
// is enforced against this count.
func (m *Memory) Pages() int { return len(m.pages) }

// Write stores v at addr, materialising the page if needed.
func (m *Memory) Write(addr int64, v int64) {
	pn := addr >> pageShift
	p := m.lookup(pn)
	if p == nil {
		p = new(page)
		m.pages[pn] = p
		*m.slot(pn) = cachedPage{pn, p}
	}
	p[addr&pageMask] = v
}

// Image is a compact serialisable snapshot of memory: page number to page
// contents. It is the form stored inside pinballs.
type Image map[int64][]int64

// Snapshot deep-copies the touched pages into an Image.
func (m *Memory) Snapshot() Image {
	img := make(Image, len(m.pages))
	for pn, p := range m.pages {
		cp := make([]int64, pageWords)
		copy(cp, p[:])
		img[pn] = cp
	}
	return img
}

// Restore replaces the memory contents with the image. It is the only
// place the page map is replaced, so it is where the cache is emptied.
func (m *Memory) Restore(img Image) {
	m.cache = [len(m.cache)]cachedPage{}
	m.pages = make(map[int64]*page, len(img))
	for pn, words := range img {
		p := new(page)
		copy(p[:], words)
		m.pages[pn] = p
	}
}

// Equal reports whether two images describe identical memory contents,
// treating absent pages as zero.
func (a Image) Equal(b Image) bool {
	zero := func(ws []int64) bool {
		for _, w := range ws {
			if w != 0 {
				return false
			}
		}
		return true
	}
	for pn, ws := range a {
		bw, ok := b[pn]
		if !ok {
			if !zero(ws) {
				return false
			}
			continue
		}
		for i := range ws {
			if ws[i] != bw[i] {
				return false
			}
		}
	}
	for pn, ws := range b {
		if _, ok := a[pn]; !ok && !zero(ws) {
			return false
		}
	}
	return true
}
