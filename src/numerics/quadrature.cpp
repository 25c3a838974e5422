#include "numerics/quadrature.hpp"

#include <array>
#include <cmath>

#include "common/require.hpp"

namespace cosm::numerics {

namespace {

// 16 positive abscissae/weights of the 32-point Gauss–Legendre rule on
// [-1, 1]; the rule is symmetric.
constexpr std::array<double, 16> kGlNodes = {
    0.0483076656877383162, 0.1444719615827964934, 0.2392873622521370745,
    0.3318686022821276497, 0.4213512761306353454, 0.5068999089322293900,
    0.5877157572407623290, 0.6630442669302152010, 0.7321821187402896804,
    0.7944837959679424069, 0.8493676137325699701, 0.8963211557660521240,
    0.9349060759377396892, 0.9647622555875064308, 0.9856115115452683354,
    0.9972638618494815635};
constexpr std::array<double, 16> kGlWeights = {
    0.0965400885147278006, 0.0956387200792748594, 0.0938443990808045654,
    0.0911738786957638847, 0.0876520930044038111, 0.0833119242269467552,
    0.0781938957870703065, 0.0723457941088485062, 0.0658222227763618468,
    0.0586840934785355471, 0.0509980592623761762, 0.0428358980222266807,
    0.0342738629130214331, 0.0253920653092620595, 0.0162743947309056706,
    0.0070186100094700966};

}  // namespace

std::complex<double> integrate_gauss_complex(
    const std::function<std::complex<double>(double)>& f, double a, double b,
    int panels) {
  COSM_REQUIRE(a <= b, "integration bounds must be ordered");
  COSM_REQUIRE(panels > 0, "need at least one panel");
  const double h = (b - a) / panels;
  std::complex<double> total = 0.0;
  for (int p = 0; p < panels; ++p) {
    const double mid = a + (p + 0.5) * h;
    const double half = 0.5 * h;
    std::complex<double> panel_sum = 0.0;
    for (std::size_t i = 0; i < kGlNodes.size(); ++i) {
      const double dx = half * kGlNodes[i];
      panel_sum += kGlWeights[i] * (f(mid - dx) + f(mid + dx));
    }
    total += panel_sum * half;
  }
  return total;
}

}  // namespace cosm::numerics
