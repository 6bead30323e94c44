package store

// ParseManifest and CompactManifest expose the manifest codec to
// FuzzManifest, which is an external test because its seeds come from
// faultinject, and faultinject imports this package.
func ParseManifest(data []byte) (entries map[string]*Entry, torn bool, err error) {
	m, err := parseManifest(data)
	if err != nil {
		return nil, false, err
	}
	return m.entries, m.torn, nil
}

func CompactManifest(entries map[string]*Entry) ([]byte, error) {
	return (&manifest{entries: entries}).compactBytes()
}
