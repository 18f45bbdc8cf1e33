package fuzz

// ParsedSeeds reports how many seeds parsed under the grammar.
func (f *Grammar) ParsedSeeds() int { return len(f.trees) }
