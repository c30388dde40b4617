#include "src/text/similarity.h"

#include <algorithm>
#include <cmath>

#include "src/nn/kernels.h"
#include "src/text/tokenizer.h"

namespace autodc::text {

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  size_t n = a.size();
  size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  std::vector<size_t> prev(m + 1);
  std::vector<size_t> cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  size_t maxlen = std::max(a.size(), b.size());
  if (maxlen == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(maxlen);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  size_t n = a.size();
  size_t m = b.size();
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  size_t window = std::max(n, m) / 2;
  if (window > 0) window -= 1;
  std::vector<bool> a_match(n, false), b_match(m, false);
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t lo = (i > window) ? i - window : 0;
    size_t hi = std::min(m, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_match[j] || a[i] != b[j]) continue;
      a_match[i] = b_match[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  size_t t = 0;
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!a_match[i]) continue;
    while (!b_match[j]) ++j;
    if (a[i] != b[j]) ++t;
    ++j;
  }
  double dm = static_cast<double>(matches);
  return (dm / n + dm / m + (dm - t / 2.0) / dm) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  size_t maxp = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < maxp && a[prefix] == b[prefix]) ++prefix;
  return jaro + 0.1 * static_cast<double>(prefix) * (1.0 - jaro);
}

TokenSet MakeTokenSet(std::vector<std::string> tokens) {
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

double SetJaccard(const TokenSet& a, const TokenSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++inter;
      ++ia;
      ++ib;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double TokenJaccard(std::string_view a, std::string_view b) {
  return SetJaccard(MakeTokenSet(Tokenize(a)), MakeTokenSet(Tokenize(b)));
}

double TrigramJaccard(std::string_view a, std::string_view b) {
  return SetJaccard(MakeTokenSet(CharNgrams(a, 3)),
                    MakeTokenSet(CharNgrams(b, 3)));
}

double MongeElkan(std::string_view a, std::string_view b) {
  std::vector<std::string> ta = Tokenize(a);
  std::vector<std::string> tb = Tokenize(b);
  if (ta.empty()) return tb.empty() ? 1.0 : 0.0;
  if (tb.empty()) return 0.0;
  double sum = 0.0;
  for (const std::string& x : ta) {
    double best = 0.0;
    for (const std::string& y : tb) {
      best = std::max(best, JaroWinklerSimilarity(x, y));
    }
    sum += best;
  }
  return sum / static_cast<double>(ta.size());
}

// Both overloads share the fused kernel (one pass computing dot and the
// two norms); the size checks live here, the zero-norm guard inside the
// kernel.
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  return nn::kernels::CosineF64(a.data(), b.data(), a.size());
}
double CosineSimilarity(const std::vector<float>& a,
                        const std::vector<float>& b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  return nn::kernels::CosineF32(a.data(), b.data(), a.size());
}

double EuclideanDistance(const std::vector<float>& a,
                         const std::vector<float>& b) {
  size_t n = std::min(a.size(), b.size());
  return std::sqrt(nn::kernels::SqDistF32(a.data(), b.data(), n));
}

}  // namespace autodc::text
