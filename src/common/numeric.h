// Numerical routines used by the analytic core: adaptive quadrature (finite
// and semi-infinite intervals), plus locale-independent decimal formatting
// and the bit-exact text encodings of the checkpoint journal.
//
// These are deliberately small, dependency-free implementations tuned for the
// smooth, monotone integrands that arise from Pareto tail expressions
// (Theorem 4 of the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace chronos::numeric {

/// Target absolute tolerance used by default across the analytic core.
inline constexpr double kDefaultTol = 1e-10;

/// Adaptive Simpson integration of `f` over the finite interval [a, b].
/// Requires a <= b and f finite on [a, b].
double integrate(const std::function<double(double)>& f, double a, double b,
                 double tol = kDefaultTol);

/// Integration of `f` over [a, +inf). `f` must decay at least like x^{-p}
/// with p > 1 for convergence; the tail is mapped onto (0, 1] with the
/// substitution x = a + t/(1 - t).
double integrate_to_infinity(const std::function<double(double)>& f, double a,
                             double tol = kDefaultTol);

// --- locale-independent decimal formatting ---------------------------------
//
// snprintf/strtod honour the global C locale's decimal separator, so report
// bytes (and manifest parsing) would change under e.g. a ","-decimal locale.
// These helpers are built on std::to_chars / std::from_chars, which always
// use '.', making every emitted report byte-identical regardless of locale.

/// Shortest decimal form that parses back to exactly `v` ("1e-06", "0.3").
/// Non-finite values render as "inf" / "-inf" / "nan".
std::string format_double(double v);

/// Fixed-point form with `precision` fractional digits, like printf %.*f.
/// Non-finite values render as "+inf" / "-inf" / "nan". Requires
/// precision >= 0.
std::string format_double_fixed(double v, int precision);

/// Six-significant-digit general form, like printf %g ("1e-06", "0.333333").
std::string format_double_g(double v);

/// Parses the entire string as a decimal double (also accepts "inf"/"nan"
/// and a leading '+'). Returns false when the text is empty, has trailing
/// characters, or does not parse.
bool parse_double(std::string_view text, double& out);

// --- bit-exact text encoding helpers ---------------------------------------
//
// The checkpoint journal's field codecs: how a double and a checksum look,
// byte for byte.

/// Appends the exact textual form of a double: hex float via to_chars
/// ("1.4p+1"), with "inf"/"-inf"/"nan" for non-finite values.
void append_hex_double(std::string& out, double v);

/// Parses a hex-float field exactly as append_hex_double writes it. Returns
/// false when the text is empty, malformed, or has trailing characters.
bool parse_hex_double(std::string_view text, double& out);

/// 64-bit FNV-1a hash of `text` (checksums for journal/protocol lines).
std::uint64_t fnv1a(std::string_view text);

/// Lower-case hex form of a 64-bit value, no leading zeros ("0" for 0).
std::string hex64(std::uint64_t value);

/// Parses an unsigned decimal integer field; false on empty/trailing/bad.
bool parse_u64(std::string_view text, std::uint64_t& out);

}  // namespace chronos::numeric
