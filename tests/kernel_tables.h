// Runs a kernel check once per kernel table (gnn/kernel_isa.h) this CPU
// supports, so the bitwise contract tests cover every ISA's bodies and not
// only the dispatched one. Tables the CPU lacks are reported as skipped by
// KernelIsaTest.EveryTableRunsOnThisCpu (nn_test).

#ifndef DGCL_TESTS_KERNEL_TABLES_H_
#define DGCL_TESTS_KERNEL_TABLES_H_

#include <string>

#include "gnn/kernel_isa.h"

namespace dgcl {

// Calls check(table name) with each supported table pinned in turn, then
// pins the dispatched table again.
template <typename Check>
void ForEachKernelTable(Check check) {
  for (Isa isa : SupportedIsas()) {
    PinKernelIsa(isa);
    check(std::string(KernelTable(isa).name));
  }
  PinKernelIsa(DispatchedIsa());
}

}  // namespace dgcl

#endif  // DGCL_TESTS_KERNEL_TABLES_H_
