// Package webcorpus generates the deterministic synthetic web that
// stands in for the live internet behind the paper's Bing substrate.
//
// The corpus contains sites (domains) each publishing pages in one of
// the four verticals the paper's built-in services expose — web,
// image, video, news — over a set of topics (video games, wine,
// movies, health, general). Generation is seeded, so every run of the
// benchmarks and examples sees the same web.
package webcorpus

import (
	"math/rand"
	"strconv"
	"strings"
)

// Vertical identifies which built-in search service a page belongs to.
type Vertical string

// The four verticals named in the paper (§II-A, Built-in Services).
const (
	VerticalWeb   Vertical = "web"
	VerticalImage Vertical = "image"
	VerticalVideo Vertical = "video"
	VerticalNews  Vertical = "news"
)

// Verticals lists all verticals in stable order.
var Verticals = []Vertical{VerticalWeb, VerticalImage, VerticalVideo, VerticalNews}

// Topic is a content domain the generator can write about.
type Topic string

// Topics covered by the synthetic web. They mirror the application
// domains the paper motivates: video games (GamerQueen), wine, movies
// (video store), plus health and general filler.
const (
	TopicGames   Topic = "games"
	TopicWine    Topic = "wine"
	TopicMovies  Topic = "movies"
	TopicHealth  Topic = "health"
	TopicGeneral Topic = "general"
)

// Topics lists all topics in stable order.
var Topics = []Topic{TopicGames, TopicWine, TopicMovies, TopicHealth, TopicGeneral}

// Page is one synthetic web document.
type Page struct {
	URL      string
	Site     string // registrable domain, e.g. "ign.com"
	Title    string
	Body     string
	Vertical Vertical
	Topic    Topic
	// Entity is the subject the page is about (a game title, a wine
	// name); supplemental search relevance is judged against it.
	Entity string
	// Links holds intra-corpus URLs, used by the crawler substrate.
	Links []string
	// PublishedDay is a day ordinal for news freshness ranking.
	PublishedDay int
}

// Site is a synthetic publisher.
type Site struct {
	Domain  string
	Topic   Topic
	Quality float64 // 0..1 editorial quality prior, used in ranking
}

// Corpus is a generated synthetic web.
type Corpus struct {
	Sites []Site
	Pages []Page

	bySite map[string][]int
	byURL  map[string]int
}

// Config controls generation.
type Config struct {
	Seed int64
	// PagesPerSite is the mean page count per site (default 40).
	PagesPerSite int
	// EntitiesPerTopic is how many distinct subjects each topic has
	// (default 60). Entity names are what proprietary catalogs in the
	// examples overlap with.
	EntitiesPerTopic int
}

// Known review sites per topic: these reproduce the paper's §II-B
// example of restricting game-review search to ign.com, gamespot.com
// and teamxbox.com.
var topicSites = map[Topic][]string{
	TopicGames: {
		"ign.com", "gamespot.com", "teamxbox.com", "kotaku.com",
		"eurogamer.net", "polygon.example", "gamerankings.example",
		"pixelcritic.example", "joystiq.example", "nukezone.example",
	},
	TopicWine: {
		"winespectator.example", "cellartracker.example", "vinous.example",
		"decanter.example", "grapevine.example", "sommelier.example",
		"barrelnotes.example", "terroir.example",
	},
	TopicMovies: {
		"imdb.example", "rottentomatoes.example", "variety.example",
		"screenrant.example", "filmdaily.example", "cinephile.example",
		"boxoffice.example", "trailerpark.example",
	},
	TopicHealth: {
		"webmd.example", "healthline.example", "mayoclinic.example",
		"medscape.example", "wellness.example",
	},
	TopicGeneral: {
		"news.example", "blogspot.example", "wikipedia.example",
		"aboutstuff.example", "dailypost.example", "answers.example",
		"forumhub.example",
	},
}

var gameWords = []string{"Legend", "Halo", "Gears", "Spirit", "Shadow", "Dragon", "Quest", "Fortress", "Empire", "Galaxy", "Racer", "Tactics", "Arena", "Chronicles", "Odyssey", "Infinite", "Storm", "Blade", "Kingdom", "Nebula"}
var wineWords = []string{"Chateau", "Ridge", "Valley", "Estate", "Reserve", "Vineyard", "Creek", "Hill", "Coast", "Oak", "Stone", "River", "Meadow", "Cellars", "Summit"}
var wineVarietals = []string{"Cabernet", "Merlot", "Pinot Noir", "Chardonnay", "Riesling", "Zinfandel", "Syrah", "Malbec"}
var movieWords = []string{"Midnight", "Crimson", "Silent", "Broken", "Golden", "Last", "First", "Hidden", "Lost", "Eternal", "Winter", "Summer", "Iron", "Paper", "Glass"}
var movieNouns = []string{"Horizon", "Promise", "City", "Garden", "Voyage", "Letter", "Echo", "Harbor", "Crown", "Mirror", "Station", "Bridge"}
var healthTerms = []string{"migraine", "allergy", "insomnia", "nutrition", "fitness", "diabetes", "posture", "hydration", "recovery", "immunity"}
var generalTerms = []string{"travel", "finance", "gardening", "photography", "cooking", "history", "weather", "music", "fashion", "science"}

var fillerWords = []string{
	"the", "latest", "complete", "guide", "review", "analysis", "impressions",
	"detailed", "hands", "on", "coverage", "exclusive", "report", "roundup",
	"community", "expert", "opinion", "rating", "scores", "verdict", "deep",
	"dive", "comparison", "feature", "story", "update", "preview", "breakdown",
}

// Entities returns the generated entity names for a topic with the
// given config. It is deterministic for a seed, and is exported so
// example catalogs can be built from the same universe of subjects.
func Entities(cfg Config, topic Topic) []string {
	n := cfg.EntitiesPerTopic
	if n <= 0 {
		n = 60
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(len(topic))*7919))
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for len(out) < n {
		var name string
		switch topic {
		case TopicGames:
			name = gameWords[rng.Intn(len(gameWords))] + " " + gameWords[rng.Intn(len(gameWords))]
			if rng.Intn(3) == 0 {
				name += " " + strconv.Itoa(2+rng.Intn(5))
			}
		case TopicWine:
			name = wineWords[rng.Intn(len(wineWords))] + " " + wineWords[rng.Intn(len(wineWords))] + " " + wineVarietals[rng.Intn(len(wineVarietals))]
		case TopicMovies:
			name = movieWords[rng.Intn(len(movieWords))] + " " + movieNouns[rng.Intn(len(movieNouns))]
		case TopicHealth:
			name = healthTerms[rng.Intn(len(healthTerms))] + " " + healthTerms[rng.Intn(len(healthTerms))]
		default:
			name = generalTerms[rng.Intn(len(generalTerms))] + " " + generalTerms[rng.Intn(len(generalTerms))]
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// Generate builds the corpus.
func Generate(cfg Config) *Corpus {
	perSite := cfg.PagesPerSite
	if perSite <= 0 {
		perSite = 40
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nSites := 0
	for _, topic := range Topics {
		nSites += len(topicSites[topic])
	}
	// Each site draws perSite/2 + [0, perSite) pages, perSite on
	// average; the sizes below are that mean.
	c := &Corpus{
		Sites:  make([]Site, 0, nSites),
		Pages:  make([]Page, 0, nSites*perSite),
		bySite: make(map[string][]int, nSites),
		byURL:  make(map[string]int, nSites*perSite),
	}

	entities := make(map[Topic][]string, len(Topics))
	// slugs caches each entity's URL slug; pages repeat entities.
	slugs := make(map[string]string)
	for _, topic := range Topics {
		entities[topic] = Entities(cfg, topic)
		for _, e := range entities[topic] {
			slugs[e] = strings.ToLower(strings.ReplaceAll(e, " ", "-"))
		}
		for _, domain := range topicSites[topic] {
			c.Sites = append(c.Sites, Site{
				Domain:  domain,
				Topic:   topic,
				Quality: 0.3 + 0.7*rng.Float64(),
			})
		}
	}

	// body is makePage's scratch: each page body is built in it and
	// copied out at its exact size.
	var body []byte
	for _, site := range c.Sites {
		n := perSite/2 + rng.Intn(perSite)
		idxs := make([]int, 0, n)
		for i := 0; i < n; i++ {
			topic := site.Topic
			// 15% of pages are off-topic noise.
			if rng.Intn(100) < 15 {
				topic = Topics[rng.Intn(len(Topics))]
			}
			ents := entities[topic]
			entity := ents[rng.Intn(len(ents))]
			vertical := pickVertical(rng)
			var page Page
			page, body = makePage(rng, site, topic, entity, slugs[entity], vertical, i, body)
			idxs = append(idxs, len(c.Pages))
			c.byURL[page.URL] = len(c.Pages)
			c.Pages = append(c.Pages, page)
		}
		c.bySite[site.Domain] = idxs
	}

	// Wire intra-corpus links: each web page links to a handful of
	// pages, biased to the same site (for crawler traversal).
	for i := range c.Pages {
		p := &c.Pages[i]
		if p.Vertical != VerticalWeb {
			continue
		}
		nLinks := 2 + rng.Intn(5)
		p.Links = make([]string, 0, nLinks)
		for j := 0; j < nLinks; j++ {
			var target int
			if rng.Intn(100) < 70 {
				sameSite := c.bySite[p.Site]
				target = sameSite[rng.Intn(len(sameSite))]
			} else {
				target = rng.Intn(len(c.Pages))
			}
			if target != i {
				p.Links = append(p.Links, c.Pages[target].URL)
			}
		}
	}
	return c
}

func pickVertical(rng *rand.Rand) Vertical {
	switch r := rng.Intn(100); {
	case r < 55:
		return VerticalWeb
	case r < 70:
		return VerticalImage
	case r < 85:
		return VerticalVideo
	default:
		return VerticalNews
	}
}

// makePage draws one page. slug is entity's URL slug; body is scratch
// for the page body, returned for the next call to reuse.
func makePage(rng *rand.Rand, site Site, topic Topic, entity, slug string, vertical Vertical, ord int, body []byte) (Page, []byte) {
	url := "http://" + site.Domain + "/" + string(vertical) + "/" + slug + "-" + strconv.Itoa(ord)

	var title string
	switch vertical {
	case VerticalImage:
		title = entity + " screenshots and photo gallery"
	case VerticalVideo:
		title = entity + " official trailer and gameplay video"
	case VerticalNews:
		title = entity + " announcement: " + fillerWords[rng.Intn(len(fillerWords))] + " news"
	default:
		title = entity + " review - " + fillerWords[rng.Intn(len(fillerWords))] + " " + fillerWords[rng.Intn(len(fillerWords))]
	}

	b := append(body[:0], entity...)
	b = append(b, ' ')
	sentences := 3 + rng.Intn(6)
	for s := 0; s < sentences; s++ {
		words := 8 + rng.Intn(10)
		for w := 0; w < words; w++ {
			if rng.Intn(10) == 0 {
				b = append(b, entity...)
			} else {
				b = append(b, fillerWords[rng.Intn(len(fillerWords))]...)
			}
			b = append(b, ' ')
		}
		b = append(b, ". "...)
	}
	b = append(b, topic...)

	return Page{
		URL:          url,
		Site:         site.Domain,
		Title:        title,
		Body:         string(b),
		Vertical:     vertical,
		Topic:        topic,
		Entity:       entity,
		PublishedDay: rng.Intn(365),
	}, b
}

// PagesBySite returns the pages of one site.
func (c *Corpus) PagesBySite(domain string) []Page {
	idxs := c.bySite[domain]
	out := make([]Page, len(idxs))
	for i, ix := range idxs {
		out[i] = c.Pages[ix]
	}
	return out
}

// PageByURL finds a page by URL; the crawler uses this as its HTTP
// fetch.
func (c *Corpus) PageByURL(url string) (Page, bool) {
	ix, ok := c.byURL[url]
	if !ok {
		return Page{}, false
	}
	return c.Pages[ix], true
}

// SitesForTopic lists domains publishing a topic.
func SitesForTopic(topic Topic) []string {
	out := make([]string, len(topicSites[topic]))
	copy(out, topicSites[topic])
	return out
}

// HTML renders the page as a minimal HTML document, used by the
// crawler substrate to exercise real extraction.
func (p Page) HTML() string {
	var b strings.Builder
	b.WriteString("<html><head><title>")
	b.WriteString(p.Title)
	b.WriteString("</title></head><body><h1>")
	b.WriteString(p.Title)
	b.WriteString("</h1><p>")
	b.WriteString(p.Body)
	b.WriteString("</p>")
	for _, l := range p.Links {
		b.WriteString(`<a href="`)
		b.WriteString(l)
		b.WriteString(`">link</a>`)
	}
	b.WriteString("</body></html>")
	return b.String()
}
