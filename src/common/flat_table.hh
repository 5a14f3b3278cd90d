/**
 * @file
 * Fixed-size table of trivially-copyable entries, built by one bulk
 * fill instead of a per-entry constructor loop. Every Simulator owns
 * several hundred KiB of such tables (cache lines, predictor and
 * estimator counters, BTB entries), and a served request builds a
 * fresh machine, so the fill shows up in every request's latency.
 */

#ifndef STSIM_COMMON_FLAT_TABLE_HH
#define STSIM_COMMON_FLAT_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

namespace stsim
{

template <typename T>
class FlatTable
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "FlatTable entries are copied and freed as raw bytes");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  public:
    FlatTable() = default;

    /**
     * @p n entries of all-zero bytes (one memset). Only for entry
     * types whose zero bytes are their initial state.
     */
    explicit FlatTable(std::size_t n) : data_(allocate(n)), size_(n)
    {
        std::memset(data_.get(), 0, n * sizeof(T));
    }

    /** @p n copies of @p init: the entry, then doubling block copies. */
    FlatTable(std::size_t n, const T &init) : data_(allocate(n)), size_(n)
    {
        T *p = data_.get();
        if (n == 0)
            return;
        std::memcpy(p, &init, sizeof(T));
        for (std::size_t done = 1; done < n;) {
            const std::size_t k = std::min(done, n - done);
            std::memcpy(p + done, p, k * sizeof(T));
            done += k;
        }
    }

    std::size_t size() const { return size_; }

    T &operator[](std::size_t i) { return data_.get()[i]; }
    const T &operator[](std::size_t i) const { return data_.get()[i]; }

  private:
    struct Free
    {
        void operator()(T *p) const { ::operator delete(p); }
    };

    static T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T)));
    }

    std::unique_ptr<T, Free> data_;
    std::size_t size_ = 0;
};

} // namespace stsim

#endif // STSIM_COMMON_FLAT_TABLE_HH
