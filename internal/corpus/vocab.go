// Package corpus provides the synthetic privacy-policy corpus that stands
// in for the TikTok and Meta policies evaluated in the paper (which are
// copyrighted and not shipped): TikTak (~15k words) and MetaBook (~40k
// words), generated deterministically from statement templates that mirror
// the structures of the paper's Tables 2–3, plus the embedded OPP-115
// taxonomy and small hand-written policies for tests.
package corpus

// Base data-type vocabulary. Generators combine these with modifiers to
// reach the distinct-data-type counts of Table 1.
var baseDataTypes = []string{
	"email address", "phone number", "name", "username", "password",
	"profile image", "date of birth", "age", "gender", "language",
	"postal address", "payment information", "credit card number",
	"purchase history", "transaction record", "billing address",
	"ip address", "device identifier", "browser type", "operating system",
	"cookie", "pixel tag", "crash log", "performance log", "battery level",
	"screen resolution", "mobile carrier", "time zone setting",
	"gps location", "approximate location", "location history",
	"search history", "watch history", "browsing history", "click behavior",
	"interaction data", "usage data", "session duration", "app activity",
	"message content", "comment", "photo", "video", "audio recording",
	"voice command", "livestream content", "contact list", "friend list",
	"social connection", "follower list", "calendar entry", "clipboard content",
	"biometric identifier", "faceprint", "voiceprint", "keystroke pattern",
	"advertising identifier", "analytics record", "survey response",
	"customer support ticket", "loyalty account number", "wishlist",
	"shipping address", "tax identification number", "employment detail",
	"education record", "health metric", "fitness activity", "sleep pattern",
	"network information", "wifi connection record", "bluetooth signal",
	"sensor reading", "accelerometer data", "gyroscope data",
	"sim card information", "installed application list", "font setting",
	"referral url", "landing page", "scroll activity", "hover pattern",
}

// dataModifiers multiply the data vocabulary ("hashed email address").
var dataModifiers = []string{
	"", "hashed", "encrypted", "truncated", "aggregated", "anonymized",
	"inferred", "derived", "historical", "approximate", "verified",
	"self-reported", "third-party sourced", "publicly available",
}

// basePartyTypes are receiver/sender organizations.
var basePartyTypes = []string{
	"advertising partner", "analytics provider", "service provider",
	"payment processor", "cloud storage provider", "content delivery network",
	"customer support vendor", "marketing agency", "measurement partner",
	"research institution", "law enforcement agency", "regulatory authority",
	"corporate affiliate", "subsidiary company", "merger partner",
	"data broker", "identity verification service", "fraud prevention service",
	"shipping carrier", "app store operator", "device manufacturer",
	"telecommunications operator", "social network platform",
	"advertising network", "audience measurement firm", "academic researcher",
	"government agency", "court", "insurance underwriter", "credit bureau",
}

// partyModifiers multiply the entity vocabulary.
var partyModifiers = []string{
	"", "trusted", "regional", "international", "third-party", "integrated",
	"certified", "contracted", "affiliated", "independent", "european",
	"domestic", "overseas", "licensed", "specialized", "downstream",
	"upstream", "principal", "secondary", "strategic", "approved",
	"vetted", "external", "partnered", "accredited",
}

// userActions are activity clauses for "When you ..." templates.
var userActions = []string{
	"create an account", "upload content", "make a purchase",
	"contact customer support", "join a livestream", "post a comment",
	"send a direct message", "sync your contacts", "enable location services",
	"participate in a survey", "register for an event", "follow another user",
	"search for content", "watch a video", "click an advertisement",
	"connect a social media account", "use the camera feature",
	"use voice-enabled features", "browse the marketplace",
	"apply a filter or effect", "play an interactive game",
	"submit a verification document", "opt in to personalized ads",
	"visit our website", "install the application",
}

// collectVerbs, shareVerbs and selfVerbs vary the main verbs.
var collectVerbs = []string{"collect", "receive", "obtain", "gather", "record", "access", "infer", "derive", "capture"}

var shareVerbs = []string{"share", "disclose", "provide", "transfer", "transmit", "send", "release", "distribute"}

var selfVerbs = []string{"use", "store", "process", "retain", "analyze", "combine", "preserve", "review", "maintain", "log"}

// conditions mixes precise and intentionally vague circumstances; the vague
// ones exercise Challenge 1's placeholder machinery.
var conditions = []string{
	"you consent", "you opt in", "required by law", "legitimate business purposes",
	"business operations", "security purposes", "you enable the feature",
	"your account settings allow it", "a lawful request is received",
	"necessary to comply with the law", "fraud is suspected",
	"legitimate interests apply", "the public interest requires it",
	"you participate in promotional programs", "technical maintenance demands it",
}

// boilerplate sentences carry no data practices; they pad policies to
// realistic length and exercise the extractor's rejection path.
var boilerplate = []string{
	"This section is intended to help readers understand the scope of the practices described here.",
	"The definitions in this section apply throughout the remainder of the document.",
	"Capitalized terms carry the meanings assigned in the glossary above.",
	"The effective date of this version appears at the top of the page.",
	"Regional supplements in the appendix override conflicting clauses where applicable law demands.",
	"Nothing in this paragraph limits rights granted elsewhere in the document.",
	"The numbering of clauses is for convenience only and carries no legal weight.",
	"Questions about this document should be directed at the address in the final section.",
	"Readers are encouraged to revisit this page periodically as revisions are published here first.",
	"A summary table at the end of the document condenses the key points of each section.",
	"This paragraph is informational and does not grant additional permissions to any party.",
	"Translations of this document are provided for convenience; the original language controls.",
	"The examples in this section are illustrative rather than exhaustive.",
	"Industry guidelines referenced in this section are incorporated only to the extent stated.",
	"Defined roles in this section follow the conventions of applicable data protection frameworks.",
}
