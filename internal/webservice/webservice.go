// Package webservice implements the paper's dynamic data access:
// "Symphony also supports dynamic data accessed through SOAP and
// REST-based web services. This facilitates real-time data freshness,
// allows users to keep data considered too sensitive 'in-house' and
// allows integration of 3rd-party services."
//
// A ServiceClient calls a remote endpoint at query time, templating
// the request from fields of the primary result that drives it. A TTL
// cache and timeout handling make the live call safe on the hosted
// serving path. The pricing simulator in this package provides the
// in-process "real-time pricing and in-stock service" of §II-B.
package webservice

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"
)

// Protocol selects the wire format.
type Protocol string

// REST services exchange JSON; SOAP services exchange XML envelopes.
const (
	ProtocolREST Protocol = "rest"
	ProtocolSOAP Protocol = "soap"
)

// Definition describes a callable service.
type Definition struct {
	Name     string   `json:"name"`
	Protocol Protocol `json:"protocol"`
	// Endpoint is the service URL. For REST the Params are sent as
	// query parameters; for SOAP a body envelope is POSTed.
	Endpoint string `json:"endpoint"`
	// Params maps service parameter names to templates over driving
	// fields, e.g. {"title": "{title}"}.
	Params map[string]string `json:"params"`
	// SOAPAction names the operation for SOAP services.
	SOAPAction string `json:"soapAction,omitempty"`
	// TimeoutMS bounds each attempt (default 1000).
	TimeoutMS int `json:"timeoutMs,omitempty"`
	// CacheTTLMS enables response caching per parameter set.
	CacheTTLMS int `json:"cacheTtlMs,omitempty"`
	// Retries re-attempts failed calls (network error or 5xx) up to
	// this many additional times. Supplemental sources typically set
	// 1–2: the hosted page should survive a flaky 3rd-party service.
	Retries int `json:"retries,omitempty"`
}

// Response is a generic service result: a list of string-map items.
type Response struct {
	Items []map[string]string
}

// Client calls services defined by Definition.
type Client struct {
	HTTP *http.Client
	// now is injectable for cache-expiry tests.
	now func() time.Time

	mu    sync.Mutex
	cache map[string]cacheEntry
	// sweepAt is the cache size at which the next insert sweeps out
	// expired entries: twice the size the last sweep left, so the
	// sweeps cost O(1) amortized per insert.
	sweepAt int
	// stats
	calls     int
	cacheHits int
	retries   int
}

type cacheEntry struct {
	resp    Response
	expires time.Time
}

// minSweep is the smallest cache size that triggers a sweep.
const minSweep = 64

// NewClient returns a service client using the given HTTP client
// (nil means http.DefaultClient).
func NewClient(h *http.Client) *Client {
	return &Client{HTTP: h, now: time.Now, cache: make(map[string]cacheEntry), sweepAt: minSweep}
}

// ExpandTemplate substitutes {field} placeholders from args.
// Unknown placeholders expand to "".
func ExpandTemplate(tmpl string, args map[string]string) string {
	var b strings.Builder
	for {
		i := strings.IndexByte(tmpl, '{')
		if i < 0 {
			b.WriteString(tmpl)
			return b.String()
		}
		j := strings.IndexByte(tmpl[i:], '}')
		if j < 0 {
			b.WriteString(tmpl)
			return b.String()
		}
		b.WriteString(tmpl[:i])
		b.WriteString(args[tmpl[i+1:i+j]])
		tmpl = tmpl[i+j+1:]
	}
}

// TemplateRefs returns the placeholder names a template references.
func TemplateRefs(tmpl string) []string {
	var out []string
	for {
		i := strings.IndexByte(tmpl, '{')
		if i < 0 {
			return out
		}
		j := strings.IndexByte(tmpl[i:], '}')
		if j < 0 {
			return out
		}
		out = append(out, tmpl[i+1:i+j])
		tmpl = tmpl[i+j+1:]
	}
}

// Call invokes the service with the driving-field values in args.
func (c *Client) Call(ctx context.Context, def Definition, args map[string]string) (Response, error) {
	params := make(map[string]string, len(def.Params))
	for name, tmpl := range def.Params {
		params[name] = ExpandTemplate(tmpl, args)
	}
	key := cacheKey(def, params)
	ttl := time.Duration(def.CacheTTLMS) * time.Millisecond
	if ttl > 0 {
		c.mu.Lock()
		if e, ok := c.cache[key]; ok {
			if c.now().Before(e.expires) {
				c.cacheHits++
				c.mu.Unlock()
				return e.resp, nil
			}
			delete(c.cache, key)
		}
		c.mu.Unlock()
	}
	timeout := time.Duration(def.TimeoutMS) * time.Millisecond
	if timeout == 0 {
		timeout = time.Second
	}

	var resp Response
	var err error
	for attempt := 0; attempt <= def.Retries; attempt++ {
		attemptCtx, cancel := context.WithTimeout(ctx, timeout)
		switch def.Protocol {
		case ProtocolSOAP:
			resp, err = c.callSOAP(attemptCtx, def, params)
		case ProtocolREST, "":
			resp, err = c.callREST(attemptCtx, def, params)
		default:
			cancel()
			return Response{}, fmt.Errorf("webservice: unknown protocol %q", def.Protocol)
		}
		cancel()
		if err == nil {
			break
		}
		c.mu.Lock()
		c.retries++
		c.mu.Unlock()
		// Stop retrying once the caller's context is gone.
		if ctx.Err() != nil {
			break
		}
	}
	if err != nil {
		return Response{}, err
	}
	c.mu.Lock()
	c.calls++
	if ttl > 0 {
		now := c.now()
		c.cache[key] = cacheEntry{resp: resp, expires: now.Add(ttl)}
		if len(c.cache) >= c.sweepAt {
			// An expired entry never hits, so dropping it keeps the
			// hit ratio and bounds the map by the keys live in one TTL.
			for k, e := range c.cache {
				if !now.Before(e.expires) {
					delete(c.cache, k)
				}
			}
			c.sweepAt = max(2*len(c.cache), minSweep)
		}
	}
	c.mu.Unlock()
	return resp, nil
}

// Stats reports (backend calls, cache hits).
func (c *Client) Stats() (calls, cacheHits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, c.cacheHits
}

// Retries reports how many failed attempts were retried.
func (c *Client) Retries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries
}

func cacheKey(def Definition, params map[string]string) string {
	var b strings.Builder
	b.WriteString(def.Name)
	b.WriteByte('|')
	b.WriteString(def.Endpoint)
	// params in sorted order for stability
	for _, k := range slices.Sorted(maps.Keys(params)) {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(params[k])
	}
	return b.String()
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// callREST GETs endpoint?params and decodes a JSON body that is
// either a list of objects or a single object.
func (c *Client) callREST(ctx context.Context, def Definition, params map[string]string) (Response, error) {
	u, err := url.Parse(def.Endpoint)
	if err != nil {
		return Response{}, fmt.Errorf("webservice: endpoint %q: %w", def.Endpoint, err)
	}
	q := u.Query()
	for k, v := range params {
		q.Set(k, v)
	}
	u.RawQuery = q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return Response{}, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return Response{}, fmt.Errorf("webservice: calling %s: %w", def.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Response{}, fmt.Errorf("webservice: %s returned %s", def.Name, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Response{}, err
	}
	return decodeJSONItems(body)
}

func decodeJSONItems(body []byte) (Response, error) {
	var items []map[string]any
	if err := json.Unmarshal(body, &items); err != nil {
		var single map[string]any
		if err2 := json.Unmarshal(body, &single); err2 != nil {
			return Response{}, fmt.Errorf("webservice: undecodable response: %w", err)
		}
		items = []map[string]any{single}
	}
	out := Response{Items: make([]map[string]string, 0, len(items))}
	for _, it := range items {
		m := make(map[string]string, len(it))
		for k, v := range it {
			switch val := v.(type) {
			case string:
				m[k] = val
			case float64:
				m[k] = strings.TrimSuffix(fmt.Sprintf("%.2f", val), ".00")
			case bool:
				m[k] = fmt.Sprintf("%t", val)
			case nil:
				m[k] = ""
			default:
				b, err := json.Marshal(val)
				if err != nil {
					return Response{}, fmt.Errorf("webservice: re-encoding field %q: %w", k, err)
				}
				m[k] = string(b)
			}
		}
		out.Items = append(out.Items, m)
	}
	return out, nil
}

// soapEnvelope is the request/response wrapper for the SOAP path.
type soapEnvelope struct {
	XMLName xml.Name `xml:"Envelope"`
	Body    soapBody `xml:"Body"`
}

type soapBody struct {
	Items []soapItem `xml:"Item"`
	// Request side:
	Operation string      `xml:"Operation,omitempty"`
	Params    []soapParam `xml:"Param,omitempty"`
}

type soapItem struct {
	Fields []soapParam `xml:"Field"`
}

type soapParam struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

// callSOAP POSTs an XML envelope and parses Item/Field elements.
func (c *Client) callSOAP(ctx context.Context, def Definition, params map[string]string) (Response, error) {
	env := soapEnvelope{}
	env.Body.Operation = def.SOAPAction
	for k, v := range params {
		env.Body.Params = append(env.Body.Params, soapParam{Name: k, Value: v})
	}
	payload, err := xml.Marshal(env)
	if err != nil {
		return Response{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, def.Endpoint, strings.NewReader(string(payload)))
	if err != nil {
		return Response{}, err
	}
	req.Header.Set("Content-Type", "text/xml")
	req.Header.Set("SOAPAction", def.SOAPAction)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return Response{}, fmt.Errorf("webservice: calling %s: %w", def.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Response{}, fmt.Errorf("webservice: %s returned %s", def.Name, resp.Status)
	}
	var renv soapEnvelope
	if err := xml.NewDecoder(resp.Body).Decode(&renv); err != nil {
		return Response{}, fmt.Errorf("webservice: bad SOAP response: %w", err)
	}
	out := Response{}
	for _, it := range renv.Body.Items {
		m := make(map[string]string, len(it.Fields))
		for _, f := range it.Fields {
			m[f.Name] = f.Value
		}
		out.Items = append(out.Items, m)
	}
	return out, nil
}
