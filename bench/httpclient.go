package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// httpConn is one keep-alive HTTP/1.1 connection to kvserve, speaking
// just enough of the protocol for /kv/{key}: it formats requests into a
// reused buffer and parses responses out of a bufio.Reader, so the load
// generator allocates nothing per request and its share of a request's
// cost stays small and constant. (net/http's client allocates ~40
// objects a request in the process it shares with the server.)
type httpConn struct {
	c   net.Conn
	br  *bufio.Reader
	req []byte
	num [24]byte // scratch for a PUT body's digits
	tr  *tracer  // non-nil in traced slices
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial kvserve: %w", err)
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 4096), req: make([]byte, 0, 256)}, nil
}

func (h *httpConn) close() { _ = h.c.Close() }

// setDeadline bounds every request of the coming slice, so a hung
// server fails the run instead of hanging it.
func (h *httpConn) setDeadline(t time.Time) { _ = h.c.SetDeadline(t) }

var errBadResponse = errors.New("malformed HTTP response")

var contentLength = []byte("content-length:")

// roundTrip sends one request and reads its response. body is sent when
// method is PUT. It returns the status and, for a 200, the decimal value
// in the response body.
func (h *httpConn) roundTrip(method string, key, body int64) (status int, val int64, err error) {
	var start time.Time
	slot := int64(-1)
	if h.tr != nil {
		slot = h.tr.reserve(2) // request + kvserve.handler
		start = time.Now()
	}
	b := append(h.req[:0], method...)
	b = append(b, " /kv/"...)
	b = strconv.AppendInt(b, key, 10)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	if slot >= 0 {
		b = append(b, spanHeader+": "...)
		b = strconv.AppendInt(b, slot+1, 10)
		b = append(b, "\r\n"...)
	}
	if method == "PUT" {
		digits := strconv.AppendInt(h.num[:0], body, 10)
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(digits)), 10)
		b = append(b, "\r\n\r\n"...)
		b = append(b, digits...)
	} else {
		b = append(b, "\r\n"...)
	}
	h.req = b
	if _, err = h.c.Write(b); err != nil {
		return 0, 0, err
	}

	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, 0, errBadResponse
	}
	for _, d := range line[9:12] {
		if d < '0' || d > '9' {
			return 0, 0, errBadResponse
		}
		status = status*10 + int(d-'0')
	}
	length := 0
	for {
		if line, err = h.br.ReadSlice('\n'); err != nil {
			return 0, 0, err
		}
		if len(line) <= 2 {
			break
		}
		if len(line) > len(contentLength) && bytes.EqualFold(line[:len(contentLength)], contentLength) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(contentLength):]))); err != nil {
				return 0, 0, errBadResponse
			}
		}
	}
	if length > 0 {
		payload, err := h.br.Peek(length)
		if err != nil {
			return 0, 0, err
		}
		if status == 200 {
			if val, err = strconv.ParseInt(string(bytes.TrimSpace(payload)), 10, 64); err != nil {
				return 0, 0, errBadResponse
			}
		}
		if _, err = h.br.Discard(length); err != nil {
			return 0, 0, err
		}
	}
	if slot >= 0 {
		h.tr.put(slot, slot, -1, spanRequest, start, time.Now())
	}
	return status, val, nil
}

// get, put and del make httpConn a backend.

func (h *httpConn) get(key int64) (int64, bool, error) {
	status, val, err := h.roundTrip("GET", key, 0)
	switch {
	case err != nil:
		return 0, false, err
	case status == 200:
		return val, true, nil
	case status == 404:
		return 0, false, nil
	}
	return 0, false, fmt.Errorf("GET /kv/%d: status %d", key, status)
}

func (h *httpConn) put(key, val int64) error {
	status, _, err := h.roundTrip("PUT", key, val)
	if err == nil && status != 204 {
		err = fmt.Errorf("PUT /kv/%d: status %d", key, status)
	}
	return err
}

func (h *httpConn) del(key int64) (bool, error) {
	status, _, err := h.roundTrip("DELETE", key, 0)
	switch {
	case err != nil:
		return false, err
	case status == 204:
		return true, nil
	case status == 404:
		return false, nil
	}
	return false, fmt.Errorf("DELETE /kv/%d: status %d", key, status)
}
