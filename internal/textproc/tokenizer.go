// Package textproc implements the text-analysis pipeline of the search
// engine: tokenization, lowercasing, stopword removal, and Porter stemming.
// It mirrors the analyzer anatomy of the Lucene-based index-serving stack
// that the characterized web search benchmark uses, so that per-phase cost
// breakdowns have the same structure.
package textproc

import (
	"unicode"
)

// Tokenize splits text into maximal runs of letters and digits, in order of
// appearance. Tokens are returned as raw (not lowercased) strings.
func Tokenize(text string) []string {
	var tokens []string
	TokenizeFunc(text, func(token string) { tokens = append(tokens, token) })
	return tokens
}

// TokenizeFunc calls fn for each token of text, as Tokenize splits it,
// without allocating a slice. It is the one tokenizer loop: Tokenize and
// the analyzer are built on it, and the indexing and query hot paths call
// it directly. Each token is a substring of text.
func TokenizeFunc(text string, fn func(token string)) {
	start := -1
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			fn(text[start:i])
			start = -1
		}
	}
	if start >= 0 {
		fn(text[start:])
	}
}

// Lowercase returns s lowercased. ASCII is handled without allocation when
// already lowercase.
func Lowercase(s string) string {
	// Fast path: already lowercase ASCII.
	lower := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' || c >= 0x80 {
			lower = false
			break
		}
	}
	if lower {
		return s
	}
	b := make([]byte, 0, len(s))
	for _, r := range s {
		b = appendRune(b, unicode.ToLower(r))
	}
	return string(b)
}

func appendRune(b []byte, r rune) []byte {
	if r < 0x80 {
		return append(b, byte(r))
	}
	return append(b, string(r)...)
}
