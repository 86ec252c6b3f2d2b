package blob

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// The HTTP backend is the S3-like deployment: blobd (cmd/blobd) wraps
// any Store in Server's handler, and HTTPStore is the client searchers
// and publishers dial. The wire protocol is a deliberately tiny subset
// of an object store's API:
//
//	PUT    /o/<key>             store the request body
//	GET    /o/<key>             fetch the object (Range: bytes=a-b honored)
//	DELETE /o/<key>             remove the object
//	GET    /list?prefix=<p>     newline-separated keys
//
// Ranged GETs are what make disaggregated serving viable over this
// transport: a posting-block fetch moves one run of blocks, not one
// segment.

// HTTPStore is a Store backed by a blobd object server.
type HTTPStore struct {
	base   string
	client *http.Client
}

// NewHTTPStore returns a client for the object server at base
// (e.g. "http://127.0.0.1:9300").
func NewHTTPStore(base string) *HTTPStore {
	return &HTTPStore{
		base: strings.TrimRight(base, "/"),
		client: &http.Client{
			Timeout: 30 * time.Second,
			// A searcher issues block fetches from every query thread at
			// once; the default transport keeps only two idle connections
			// per host and closes the rest after each burst, leaving
			// sockets in TIME_WAIT and a new dial on the next fetch.
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 256,
			},
		},
	}
}

func (st *HTTPStore) url(key string) string { return st.base + "/o/" + key }

// Put stores data under key.
func (st *HTTPStore) Put(key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, st.url(key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("blob: put %s: %s", key, resp.Status)
	}
	return nil
}

// Get returns the whole object under key.
func (st *HTTPStore) Get(key string) ([]byte, error) {
	return st.get(key, "")
}

// GetRange returns n bytes at offset off.
func (st *HTTPStore) GetRange(key string, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("blob: negative range [%d,%d)", off, off+n)
	}
	if n == 0 {
		return nil, nil
	}
	data, err := st.get(key, fmt.Sprintf("bytes=%d-%d", off, off+n-1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != n {
		return nil, fmt.Errorf("blob: range read of %q returned %d bytes, want %d", key, len(data), n)
	}
	return data, nil
}

func (st *HTTPStore) get(key, rng string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodGet, st.url(key), nil)
	if err != nil {
		return nil, err
	}
	if rng != "" {
		req.Header.Set("Range", rng)
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent:
		return io.ReadAll(resp.Body)
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	default:
		return nil, fmt.Errorf("blob: get %s: %s", key, resp.Status)
	}
}

// List returns the sorted keys under prefix.
func (st *HTTPStore) List(prefix string) ([]string, error) {
	resp, err := st.client.Get(st.base + "/list?prefix=" + prefix)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("blob: list %q: %s", prefix, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, line := range strings.Split(string(body), "\n") {
		if line != "" {
			keys = append(keys, line)
		}
	}
	return keys, nil
}

// Delete removes key; absent keys are a no-op.
func (st *HTTPStore) Delete(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodDelete, st.url(key), nil)
	if err != nil {
		return err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("blob: delete %s: %s", key, resp.Status)
	}
	return nil
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Server wraps a Store in the blobd HTTP handler.
type Server struct {
	store Store
}

// NewServer returns an http.Handler serving st over the blobd protocol.
func NewServer(st Store) *Server { return &Server{store: st} }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/list":
		s.handleList(w, r)
	case strings.HasPrefix(r.URL.Path, "/o/"):
		s.handleObject(w, r, strings.TrimPrefix(r.URL.Path, "/o/"))
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	keys, err := s.store.List(r.URL.Query().Get("prefix"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for _, k := range keys {
		fmt.Fprintln(w, k)
	}
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request, key string) {
	if err := validKey(key); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut:
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.store.Put(key, body); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodDelete:
		if err := s.store.Delete(key); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	case http.MethodGet, http.MethodHead:
		s.handleGet(w, r, key)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, key string) {
	if rng := r.Header.Get("Range"); rng != "" {
		var off, end int64
		if _, err := fmt.Sscanf(rng, "bytes=%d-%d", &off, &end); err != nil || end < off {
			http.Error(w, "unsupported range", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		data, err := s.store.GetRange(key, off, end-off+1)
		if err != nil {
			s.getError(w, key, err)
			return
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", off, end))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(data)
		return
	}
	data, err := s.store.Get(key)
	if err != nil {
		s.getError(w, key, err)
		return
	}
	w.Write(data)
}

func (s *Server) getError(w http.ResponseWriter, key string, err error) {
	if errors.Is(err, ErrNotFound) {
		http.Error(w, key+" not found", http.StatusNotFound)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}
