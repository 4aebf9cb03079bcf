/**
 * @file
 * Growable ring buffer for the core's program-ordered queues.
 *
 * The fetch, decode and dispatch queues, the ROB, the load/store
 * queues and the shadow tracker's lists push at the back and pop at
 * either end every cycle. A power-of-two ring over one contiguous
 * vector does that with an index mask and no per-block bookkeeping,
 * where std::deque pays a block lookup per access. The ring doubles
 * when full, so it needs no capacity up front; every queue it backs
 * is bounded by a configuration size, so growth stops after warmup.
 *
 * Unlike std::deque, growth invalidates references to elements. A
 * popped slot keeps its old value until a later push overwrites it.
 */

#ifndef SB_COMMON_RING_HH
#define SB_COMMON_RING_HH

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace sb
{

template <typename T>
class Ring
{
    template <bool Const>
    class Iter
    {
      public:
        using iterator_category = std::bidirectional_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;
        using Owner = std::conditional_t<Const, const Ring, Ring>;

        Iter() = default;
        Iter(Owner *owner, std::size_t index) : ring(owner), idx(index) {}

        reference operator*() const { return (*ring)[idx]; }
        pointer operator->() const { return &(*ring)[idx]; }

        Iter &
        operator++()
        {
            ++idx;
            return *this;
        }
        Iter &
        operator--()
        {
            --idx;
            return *this;
        }

        bool operator==(const Iter &o) const { return idx == o.idx; }
        bool operator!=(const Iter &o) const { return idx != o.idx; }

      private:
        Owner *ring = nullptr;
        std::size_t idx = 0; ///< Position from the front.
    };

  public:
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;
    using reverse_iterator = std::reverse_iterator<iterator>;
    using const_reverse_iterator = std::reverse_iterator<const_iterator>;

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** Element @p i positions from the front. */
    T &operator[](std::size_t i) { return buf[(head + i) & mask()]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf[(head + i) & mask()];
    }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }
    T &back() { return (*this)[count - 1]; }
    const T &back() const { return (*this)[count - 1]; }

    void
    push_back(T value)
    {
        if (count == buf.size())
            grow();
        buf[(head + count) & mask()] = std::move(value);
        ++count;
    }

    void
    pop_front()
    {
        head = (head + 1) & mask();
        --count;
    }

    void pop_back() { --count; }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count}; }
    reverse_iterator rbegin() { return reverse_iterator(end()); }
    reverse_iterator rend() { return reverse_iterator(begin()); }
    const_reverse_iterator
    rbegin() const
    {
        return const_reverse_iterator(end());
    }
    const_reverse_iterator
    rend() const
    {
        return const_reverse_iterator(begin());
    }

  private:
    std::size_t mask() const { return buf.size() - 1; }

    void
    grow()
    {
        std::vector<T> next(buf.empty() ? 8 : 2 * buf.size());
        for (std::size_t i = 0; i < count; ++i)
            next[i] = std::move((*this)[i]);
        buf.swap(next);
        head = 0;
    }

    std::vector<T> buf; ///< Power-of-two size (or empty).
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace sb

#endif // SB_COMMON_RING_HH
