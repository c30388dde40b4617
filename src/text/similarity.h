#ifndef AUTODC_TEXT_SIMILARITY_H_
#define AUTODC_TEXT_SIMILARITY_H_

#include <string>
#include <string_view>
#include <vector>

namespace autodc::text {

/// Edit distance (insert/delete/substitute, unit costs).
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// 1 - edit_distance / max(len); 1.0 for two empty strings.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Jaro similarity in [0,1].
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity with standard prefix scaling (p=0.1, max 4).
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// A sorted, deduplicated token set. Build it once per string with
/// MakeTokenSet when the same string takes part in many comparisons.
using TokenSet = std::vector<std::string>;

/// Sorts and deduplicates `tokens` into a TokenSet.
TokenSet MakeTokenSet(std::vector<std::string> tokens);

/// |a ∩ b| / |a ∪ b| of two token sets; 1.0 when both are empty.
double SetJaccard(const TokenSet& a, const TokenSet& b);

/// Jaccard similarity of the word-token sets of a and b.
double TokenJaccard(std::string_view a, std::string_view b);

/// Jaccard similarity of character trigram sets.
double TrigramJaccard(std::string_view a, std::string_view b);

/// Monge-Elkan: average over tokens of `a` of the best Jaro-Winkler match
/// in `b`'s tokens. Asymmetric; good for multi-word names.
double MongeElkan(std::string_view a, std::string_view b);

/// Cosine similarity of two dense vectors (0 if either has zero norm or
/// lengths differ).
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b);
double CosineSimilarity(const std::vector<float>& a,
                        const std::vector<float>& b);

/// Euclidean distance between two dense vectors of equal length.
double EuclideanDistance(const std::vector<float>& a,
                         const std::vector<float>& b);

}  // namespace autodc::text

#endif  // AUTODC_TEXT_SIMILARITY_H_
