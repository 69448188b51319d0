#include "a/designs.hpp"
#include "b/helper.hpp"
namespace demo::a {
FastDesign::FastDesign(int hops) : hops_(hops) {}
std::vector<std::unique_ptr<Design>> all_designs() {
  std::vector<std::unique_ptr<Design>> out;
  out.push_back(std::make_unique<FastDesign>(demo::b::base_hops()));
  return out;
}
}  // namespace demo::a
