/**
 * @file
 * Allocation guard for the request path's success cases.
 *
 * This binary replaces the global operator new with a counting one
 * (which is why it is its own executable) and asserts that checks
 * and lookups that pass allocate nothing: a require() with a long
 * literal, a link lookup, JSON accessors, integer parsing and gate
 * appends into spare capacity. Any of them building its failure
 * message up front shows up here as a heap allocation.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "topology/coupling_graph.hpp"
#include "topology/layouts.hpp"

namespace
{

std::size_t gAllocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++gAllocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++gAllocations;
    return std::malloc(size == 0 ? 1 : size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace vaq
{
namespace
{

/** Heap allocations made while running `body`. */
template <class Body>
std::size_t
allocationsDuring(Body &&body)
{
    const std::size_t before = gAllocations;
    body();
    return gAllocations - before;
}

TEST(NoAlloc, CountingAllocatorSeesHeapStrings)
{
    // Guard the guard: a string past the small-buffer size must be
    // counted, or every zero below would be vacuous.
    std::string sink;
    EXPECT_GE(allocationsDuring([&] {
                  sink = std::string(64, 'x');
              }),
              1u);
}

TEST(NoAlloc, PassingRequireWithLongLiteral)
{
    EXPECT_EQ(allocationsDuring([] {
                  require(true, "a literal message well past the "
                                "small-string buffer");
              }),
              0u);
}

TEST(NoAlloc, LinkIndexOnCoupledPair)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    const topology::Link link = q20.links().front();
    std::size_t index = 99;
    EXPECT_EQ(allocationsDuring([&] {
                  index = q20.linkIndex(link.a, link.b);
              }),
              0u);
    EXPECT_EQ(index, 0u);
}

TEST(NoAlloc, JsonAccessorsOfTheRightKind)
{
    const json::Value number = json::Value::number(2.5);
    const json::Value text =
        json::Value::string("a string past the small buffer");
    const json::Value flag = json::Value::boolean(true);
    double x = 0.0;
    std::size_t length = 0;
    bool b = false;
    EXPECT_EQ(allocationsDuring([&] { x = number.asNumber(); }), 0u);
    EXPECT_EQ(allocationsDuring([&] { length = text.asString().size(); }),
              0u);
    EXPECT_EQ(allocationsDuring([&] { b = flag.asBool(); }), 0u);
    EXPECT_EQ(x, 2.5);
    EXPECT_EQ(length, 30u);
    EXPECT_TRUE(b);
}

TEST(NoAlloc, ParseSizeOfValidInteger)
{
    std::size_t value = 0;
    EXPECT_EQ(allocationsDuring([&] { value = parseSize("17"); }), 0u);
    EXPECT_EQ(value, 17u);
}

TEST(NoAlloc, AppendIntoSpareCapacity)
{
    circuit::Circuit c(4);
    c.h(0);
    while (c.gates().capacity() == c.size())
        c.h(0);
    const std::size_t room = c.gates().capacity() - c.size();
    EXPECT_EQ(allocationsDuring([&] {
                  for (std::size_t i = 0; i < room; ++i)
                      c.append(circuit::Gate::twoQubit(
                          circuit::GateKind::CX, 0, 3));
              }),
              0u);
    EXPECT_EQ(c.gates().capacity() - c.size(), 0u);
}

} // namespace
} // namespace vaq
