package server

import (
	"bytes"
	"encoding/json"
)

// decodeQuery decodes a /v1/query body into out, which must be zero, with
// json.Unmarshal's result and error. It is encodeAnswers read backwards: the
// answers, most of a body, are scanned by hand when they are in the form the
// daemon writes — an array of objects of plain strings, no whitespace — with
// one map per row, sized from the row before, whose keys and values are
// substrings of one string copy of the body. A string with an escape or a
// byte outside printable ASCII is handed to encoding/json alone; anything
// else the scan does not expect (whitespace, null, a number, a malformed or
// truncated body) hands the whole body to json.Unmarshal, which then gives
// the result and the error. The fields after the answers are always
// encoding/json's.
//
// On the scanned path out keeps the answers' bytes, a slice of body, for
// ReplyQuery to forward unread; body must not change after.
func decodeQuery(body []byte, out *QueryResponse) error {
	if end, ok := scanAnswers(body, out); ok && decodeTail(body, end, out) {
		out.raw = body[len(answersOpen):end]
		return nil
	}
	*out = QueryResponse{}
	return json.Unmarshal(body, out)
}

// decodeQueryUnread is decodeQuery for a reply whose answers are passed on
// unread (ReplyQuery): in the daemon's form the answers array is only
// delimited, never decoded — out.Answers stays nil and out keeps the
// array's bytes — and the fields after it are decoded. Off that form the
// body is read by json.Unmarshal, as decodeQuery reads it. body must not
// change after.
func decodeQueryUnread(body []byte, out *QueryResponse) error {
	if end, ok := skipAnswers(body); ok && decodeTail(body, end, out) {
		out.raw = body[len(answersOpen):end]
		return nil
	}
	*out = QueryResponse{}
	return json.Unmarshal(body, out)
}

// skipAnswers returns the offset just past the answers array that opens
// body, where scanAnswers would read it, or false where it would not.
func skipAnswers(b []byte) (int, bool) {
	if !bytes.HasPrefix(b, answersOpen) {
		return 0, false
	}
	i := len(answersOpen)
	if i == len(b) || b[i] != '[' {
		return 0, false
	}
	i++
	if i < len(b) && b[i] == ']' {
		return i + 1, true
	}
	for {
		if i == len(b) || b[i] != '{' {
			return 0, false
		}
		i++
		if i < len(b) && b[i] == '}' {
			i++
		} else {
			for {
				var ok bool
				if i, ok = skipString(b, i); !ok || i == len(b) || b[i] != ':' {
					return 0, false
				}
				if i, ok = skipString(b, i+1); !ok || i == len(b) {
					return 0, false
				}
				if b[i] == '}' {
					i++
					break
				}
				if b[i] != ',' {
					return 0, false
				}
				i++
			}
		}
		if i == len(b) {
			return 0, false
		}
		if b[i] == ']' {
			return i + 1, true
		}
		if b[i] != ',' {
			return 0, false
		}
		i++
	}
}

// skipString returns the offset past the JSON string at b[i] where
// scanString would read it, or false.
func skipString(b []byte, i int) (int, bool) {
	if i == len(b) || b[i] != '"' {
		return 0, false
	}
	j := i + 1
	for j < len(b) && b[j] >= ' ' && b[j] < 0x80 && b[j] != '"' && b[j] != '\\' {
		j++
	}
	if j < len(b) && b[j] == '"' {
		return j + 1, true
	}
	for ; j < len(b) && b[j] != '"'; j++ {
		switch {
		case b[j] < ' ':
			return 0, false
		case b[j] == '\\':
			j++
		}
	}
	if j >= len(b) || !json.Valid(b[i:j+1]) {
		return 0, false
	}
	return j + 1, true
}

// scanAnswers reads the answers array that opens body into out.Answers and
// returns the offset just past it, or false where json.Unmarshal must read
// the body instead.
func scanAnswers(body []byte, out *QueryResponse) (int, bool) {
	if !bytes.HasPrefix(body, answersOpen) {
		return 0, false
	}
	i := len(answersOpen)
	if i == len(body) || body[i] != '[' {
		return 0, false
	}
	s := string(body)
	rows := []map[string]string{} // "[]" decodes to an empty slice, not nil
	i++
	if i < len(s) && s[i] == ']' {
		out.Answers = rows
		return i + 1, true
	}
	width := 0 // the previous row's size
	for {
		if i == len(s) || s[i] != '{' {
			return 0, false
		}
		i++
		row := make(map[string]string, width)
		if i < len(s) && s[i] == '}' {
			i++
		} else {
			for {
				var k, v string
				var ok bool
				if k, i, ok = scanString(s, i); !ok || i == len(s) || s[i] != ':' {
					return 0, false
				}
				if v, i, ok = scanString(s, i+1); !ok || i == len(s) {
					return 0, false
				}
				row[k] = v
				if s[i] == '}' {
					i++
					break
				}
				if s[i] != ',' {
					return 0, false
				}
				i++
			}
		}
		rows, width = append(rows, row), len(row)
		if i == len(s) {
			return 0, false
		}
		if s[i] == ']' {
			out.Answers = rows
			return i + 1, true
		}
		if s[i] != ',' {
			return 0, false
		}
		i++
	}
}

// scanString reads the JSON string at s[i] and returns it with the offset
// past its closing quote. A plain string is a substring of s; one with an
// escape or a non-ASCII byte is decoded alone by encoding/json.
func scanString(s string, i int) (string, int, bool) {
	if i == len(s) || s[i] != '"' {
		return "", 0, false
	}
	j := i + 1
	for j < len(s) && s[j] >= ' ' && s[j] < 0x80 && s[j] != '"' && s[j] != '\\' {
		j++
	}
	if j < len(s) && s[j] == '"' {
		return s[i+1 : j], j + 1, true
	}
	for ; j < len(s) && s[j] != '"'; j++ {
		switch {
		case s[j] < ' ':
			return "", 0, false
		case s[j] == '\\':
			j++
		}
	}
	if j >= len(s) {
		return "", 0, false
	}
	var v string
	if err := json.Unmarshal([]byte(s[i:j+1]), &v); err != nil {
		return "", 0, false
	}
	return v, j + 1, true
}

// decodeTail decodes the fields after the answers, body[end:], into out:
// either the body's closing brace or a comma and more fields, read by
// json.Unmarshal over the same bytes with the comma turned into an opening
// brace. It reports false where the whole body must be read again: an
// error, which must carry the whole body's offsets, or a second answers
// key, which json.Unmarshal would merge into the first.
func decodeTail(body []byte, end int, out *QueryResponse) bool {
	if end == len(body) {
		return false
	}
	if body[end] == '}' {
		for _, c := range body[end+1:] {
			if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
				return false
			}
		}
		return true
	}
	if body[end] != ',' || end+1 == len(body) || body[end+1] != '"' {
		return false // a comma before a brace would read as "{}"
	}
	var tail struct {
		*QueryResponse
		Answers json.RawMessage `json:"answers"` // shadows out's: a second answers key
	}
	tail.QueryResponse = out
	body[end] = '{'
	err := json.Unmarshal(body[end:], &tail)
	body[end] = ','
	return err == nil && tail.Answers == nil
}
