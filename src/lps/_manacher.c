/* Compiled index-mapped Manacher scan: the extension module lps/native.py
   builds and loads.

   The scan is the loop of lps.core.python_radii, line for line except
   where it compares no symbol, at the widening, the split and the tail
   (see SCAN), with the same radii, counts and centers. It runs over
   a range of centers [start, stop) from a ScanState that carries it from
   one range to the next; a whole scan is one range. It reads the text
   where it lies: a str through its PEP 393 array of 1, 2 or 4 bytes per
   code point, bytes and other buffers as uint8. It writes the 2n+1 radii
   into a table of one byte per center, uint8, while every radius fits
   BYTE_LIMIT (255), and of four, int32, from the first that does not
   (widen), and reports the number of real symbol comparisons, the count
   the Python engine reports, and the leftmost center of the longest
   palindrome. The caller keeps 2n+1 below 2^31, so every index and
   radius fits an int32 table. Once a palindrome that beats the best
   reaches the end of the text, no later center can beat it, and a range
   writes no further entry: the tail, which scan fills once at the end
   (fill_tail) and longest leaves unwritten.

   scan_text allocates the table for four bytes per center, 4(2n+1)
   bytes, unzeroed; a one-byte table touches only its first quarter. It
   finds the split point once and runs at most one POSIX thread besides
   the calling one, the helper. On a table of at least SPLIT_SIZE entries
   with two differing symbols near its middle, the helper scans the
   second half while the calling thread scans the first, which then joins
   the helper and resynchronizes to its scan (split_scan); the radii,
   counts and centers are the sequential scan's. The calling thread holds
   the GIL throughout, and no scan calls Python code. scan fills the tail
   and shrinks a one-byte table to 2n+1 bytes; longest frees the table
   and returns the best center and its radius. write_table, lps radii's
   writer, formats a finished table chunk by chunk and passes each chunk
   to a write callable; it scans nothing and runs no thread. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <pthread.h>
#include <stdint.h>
#include <string.h>

/* Output bytes per formatted entry: "1073741823", the largest radius a
   table of 2n+1 < 2^31 entries holds, and a comma. The module exports
   the value. */
#define FORMAT_BYTES 11

/* Where a scan stands between two ranges: the reference center and the
   right edge of its palindrome, the best center and its radius, the
   comparisons made so far, touch, the last center whose expansion
   stopped at a floor above 0, and tail, the first center of the tail the
   scan left unwritten (see SCAN). */
typedef struct {
    int64_t ref, right, best, best_len, comparisons, touch, tail;
} ScanState;

/* right = -1: no palindrome is known yet, so center 0 expands (over no
   symbols) instead of reading its own entry as a mirror. Every entry is
   then written before it is read, and the table needs no zero fill. */
static const ScanState SCAN_START = {.right = -1};

/* The largest radius a one-byte table holds. */
#ifndef BYTE_LIMIT
#define BYTE_LIMIT 255
#endif

/* A mirror copy never exceeds the radius it copies, which an earlier
   center already holds, so only an expansion can raise the best length;
   testing it with > keeps the leftmost center on ties. For the same
   reason only an expansion can outgrow a one-byte table (R uint8_t). Its
   radius then beats the best length, which fits the byte, so the test
   sits in the rarely taken branch of a new best and the loop keeps no
   variable of its own for it. It also reaches past right, since the
   reference's radius fits the byte too, so that center is the new
   reference. The scan stops there, with the center counted in state and
   its entry truncated, and returns it, for its caller to widen the
   table, write the entry, state->best_len, and scan on from the next
   center at four bytes. No center is scanned twice, so no comparison is
   counted twice. Otherwise the scan returns stop. An expansion reads no
   symbol below floor: a scan from floor 0 is the scan of the whole text,
   and split_scan's helper scans the suffix from its floor as if the text
   began there. Only a scan with a floor keeps touch, so the test folds
   away from every loop compiled for floor 0. The loop is inlined into
   each caller: one shared out-of-line copy scanned unary text 5-10%
   slower, in how the compiler laid out its branches, than a loop
   compiled where its start and its state are known. The expansion tests
   hi < n first: in the other order GCC 12 laid out split_scan's
   one-thread scan of unary text about 5% slower.

   Once the reference palindrome reaches the end of the text, right = 2n,
   the centers left are the tail, and a range writes none of them: one
   that starts where right is 2n already (the helper's later steps,
   resync's ranges, and widen's after a widening) leaves state as it is,
   and the loop stops in the branch of a new best whose palindrome
   reaches the end, after the byte test, which keeps its center. The loop
   would write radii[j] = min(radii[2 ref - j], right - j) there, with no
   comparison, and leave ref, right, best, comparisons and touch as they
   are. Every center j left lies inside the reference, so the loop either
   copies the mirror entry, where it is below right - j, or expands from
   right - j with hi = n, past the end: no comparison, and
   radius = right - j. No radius there beats the best, since it is below
   right - ref, the reference's own, which is at most best_len; none
   reaches past right = 2n; and none outgrows a one-byte table, since no
   entry exceeds its mirror. Such an expansion would start at
   lo = j - n - 1 >= ref - n >= floor, since the reference's own expansion
   stopped at hi = n with lo = ref - n - 1 >= floor - 1, so it is no
   touch. So a skipped range leaves the state the loop would leave, but
   for tail, the first center left unwritten, which the last loop to run
   sets where it stops: at ref + 1 after a new best that reaches the end,
   and after the center of the byte test's return, whose caller writes
   its entry. An end-reaching palindrome that only ties the best, as in
   period-2 text, gets the full step, and its range writes every entry to
   stop, where tail is set. Once the scan is done, fill_tail writes
   centers [tail, 2n] for scan, at the table's final width; longest reads
   only the state. On unary text the tail is the second half of the
   table, which longest never touches.

   Where the tail test sits moves the scan's time through how GCC 12
   lays the loop out, by more than the tail saves on most texts (1e6
   symbols, scripts/kernel_pair.py, minimum CPU time of 101 rounds): a
   test on every end-reaching palindrome, where a mirror copy falls
   through or on every new right edge, made random text scan 4-7% slower,
   and one on ties (>=), unary text 6%; a range that starts in the tail
   returning at once, before the loop, made the widened scan of period-2
   text 30% slower, and the widened scan in a function of its own, out of
   line, 8%. Filling from ref + 1 instead of tail wrote period-2 text's
   tail twice: after its widening one range runs to the end. */
#define SCAN(T, R)                                                                                  \
    static inline __attribute__((always_inline)) int64_t                                            \
    scan_##T##_##R(const T *text, int64_t n, int64_t floor, R *radii, ScanState *state,             \
                   int64_t start, int64_t stop)                                                     \
    {                                                                                               \
        int64_t comparisons = state->comparisons, ref = state->ref, right = state->right;           \
        int64_t best = state->best, best_len = state->best_len, touch = state->touch;               \
        if (right < 2 * n) {                                                                        \
            int64_t j = start;                                                                      \
            for (; j < stop; j++) {                                                                 \
                int64_t radius;                                                                     \
                if (j <= right) {                                                                   \
                    int64_t k = 2 * ref - j;                                                        \
                    if (k - radii[k] > 2 * ref - right) {                                           \
                        radii[j] = radii[k];                                                        \
                        continue;                                                                   \
                    }                                                                               \
                    radius = right - j;                                                             \
                } else {                                                                            \
                    radius = j & 1;                                                                 \
                }                                                                                   \
                int64_t lo = ((j - radius) >> 1) - 1, hi = (j + radius) >> 1;                       \
                while (hi < n && lo >= floor) {                                                     \
                    comparisons++;                                                                  \
                    if (text[lo] != text[hi])                                                       \
                        break;                                                                      \
                    lo--;                                                                           \
                    hi++;                                                                           \
                }                                                                                   \
                if (floor > 0 && lo < floor)                                                        \
                    touch = j;                                                                      \
                radius = hi - lo - 1;                                                               \
                radii[j] = (R)radius;                                                               \
                if (radius > best_len) {                                                            \
                    best = j;                                                                       \
                    best_len = radius;                                                              \
                    if (sizeof(R) == 1 && radius > BYTE_LIMIT) {                                    \
                        *state = (ScanState){j, j + radius, best, best_len, comparisons, touch,     \
                                             j + 1};                                                \
                        return j;                                                                   \
                    }                                                                               \
                    if (j + radius == 2 * n) {                                                      \
                        ref = j;                                                                    \
                        right = j + radius;                                                         \
                        j++;                                                                        \
                        break;                                                                      \
                    }                                                                               \
                }                                                                                   \
                if (j + radius > right) {                                                           \
                    ref = j;                                                                        \
                    right = j + radius;                                                             \
                }                                                                                   \
            }                                                                                       \
            *state = (ScanState){ref, right, best, best_len, comparisons, touch, j};                \
        }                                                                                           \
        return stop;                                                                                \
    }

SCAN(uint8_t, uint8_t)
SCAN(uint16_t, uint8_t)
SCAN(uint32_t, uint8_t)
SCAN(uint8_t, int32_t)
SCAN(uint16_t, int32_t)
SCAN(uint32_t, int32_t)

/* The symbols of a str or a bytes-like object, read where they lie. */
typedef struct {
    Py_buffer buffer; /* held for a bytes-like text; empty for a str */
    const void *data;
    int kind;
    Py_ssize_t n;
} Text;

static int
text_open(PyObject *object, Text *text)
{
    *text = (Text){.kind = PyUnicode_1BYTE_KIND};
    if (PyUnicode_Check(object)) {
        if (PyUnicode_READY(object) < 0)
            return -1;
        text->kind = PyUnicode_KIND(object);
        text->data = PyUnicode_DATA(object);
        text->n = PyUnicode_GET_LENGTH(object);
        return 0;
    }
    if (PyObject_GetBuffer(object, &text->buffer, PyBUF_SIMPLE) < 0)
        return -1;
    text->data = text->buffer.buf;
    text->n = text->buffer.len;
    return 0;
}

/* Centers [start, stop) of text into radii, one byte per entry or, if
   wide, four, carrying state, reading no symbol below floor; returns stop,
   or the center whose radius outgrew the byte (see SCAN). */
static inline __attribute__((always_inline)) int64_t
scan_range(const Text *text, int64_t floor, void *radii, int wide, ScanState *state, int64_t start, int64_t stop)
{
    if (wide) {
        if (text->kind == PyUnicode_1BYTE_KIND)
            return scan_uint8_t_int32_t(text->data, text->n, floor, radii, state, start, stop);
        if (text->kind == PyUnicode_2BYTE_KIND)
            return scan_uint16_t_int32_t(text->data, text->n, floor, radii, state, start, stop);
        return scan_uint32_t_int32_t(text->data, text->n, floor, radii, state, start, stop);
    }
    if (text->kind == PyUnicode_1BYTE_KIND)
        return scan_uint8_t_uint8_t(text->data, text->n, floor, radii, state, start, stop);
    if (text->kind == PyUnicode_2BYTE_KIND)
        return scan_uint16_t_uint8_t(text->data, text->n, floor, radii, state, start, stop);
    return scan_uint32_t_uint8_t(text->data, text->n, floor, radii, state, start, stop);
}

/* Tables of at least SPLIT_SIZE entries are scanned on two threads.
   Starting and joining the helper costs about 40 us, so the split breaks
   even near 2^14 entries; at 2^17 it scans random text in 0.68 ms against
   1.1-1.2 ms on one thread (2-core x86_64 host, in process). The module
   exports the value for its tests. SPLIT_SIZE, STEPS and BYTE_LIMIT can
   be set when compiling, for a small model of the scan, and
   HELPER_STEPS, to fix how far its helper gets (see helper). */
#ifndef SPLIT_SIZE
#define SPLIT_SIZE (1 << 17)
#endif
/* The helper's range is cut into STEPS steps of equal length. */
#ifndef STEPS
#define STEPS 64
#endif

/* One scan of text into radii, and what the helper and the thread that
   started it share. scan sets m, the split point, once, and a helper
   runs only where m is not 0; wide is whether the table holds four bytes
   per entry, set by the calling thread. The helper scans centers
   [m, size) from the floor m/2, at one byte. At the start of each step i
   it takes lock, records its state in marks[i], sets done = i and reads
   quit; it stops there once quit is set, and after a step whose scan
   stopped at a radius above BYTE_LIMIT. Under lock, then, the centers
   before step_start(done) are final in its scan, and marks[0..done]
   hold. */
typedef struct {
    const Text *text;
    void *radii;
    int64_t m, size, done;
    int quit, wide;
    pthread_mutex_t lock;
    ScanState marks[STEPS + 1];
} Split;

/* The first center of step i of the helper's range; step STEPS is size. */
static inline int64_t
step_start(const Split *s, int64_t i)
{
    return s->m + (s->size - s->m) * i / STEPS;
}

static void *
helper(void *arg)
{
    Split *s = arg;
    /* right = m - 1: center m expands, stops at the floor at once (a
       touch) and writes 0, its true radius since its neighbours differ. */
    ScanState state = {.ref = s->m, .right = s->m - 1, .best = s->m, .touch = s->m};
    for (int64_t i = 0;; i++) {
        pthread_mutex_lock(&s->lock);
        s->marks[i] = state;
        s->done = i;
        int quit = s->quit;
#ifdef HELPER_STEPS
        /* a small model's helper takes exactly this many steps of a split,
           short of a radius above BYTE_LIMIT, before split_scan scans [0, m) */
        quit = i == HELPER_STEPS;
#endif
        pthread_mutex_unlock(&s->lock);
        if (i == STEPS || quit)
            return NULL;
        int64_t next = step_start(s, i + 1);
        if (scan_range(s->text, s->m / 2, s->radii, 0, &state, step_start(s, i), next) < next)
            return NULL; /* as if told to quit: the state it stopped in is no mark */
    }
}

/* Make the helper stop at its next step start, if it has not finished,
   and join it. */
static void
join_helper(Split *s, pthread_t thread)
{
    pthread_mutex_lock(&s->lock);
    s->quit = 1;
    pthread_mutex_unlock(&s->lock);
    pthread_join(thread, NULL);
}

/* The even center at which scan splits a table of size entries: the
   first boundary at or after the middle whose two neighbouring symbols
   differ, searched within one step; 0 if there is none. */
static int64_t
split_point(const Text *text, int64_t size)
{
    if (size < SPLIT_SIZE)
        return 0;
    int64_t middle = size / 2 + (size / 2 & 1);
    for (int64_t m = middle; m < middle + (size - middle) / STEPS; m += 2)
        if (PyUnicode_READ(text->kind, text->data, m / 2 - 1) != PyUnicode_READ(text->kind, text->data, m / 2))
            return m;
    return 0;
}

/* The table of a scan stopped at center j, whose radius outgrew the
   byte, widened to int32 in place, with j's entry written, and scanned on
   at four bytes (split_scan). Entry i moves to bytes [4i, 4i + 4), which
   lie at or right of every byte entry not yet moved when the entries
   move back to front. Every entry it moves is written: j expanded, and no
   expansion happens once the tail starts, so no range before j skipped
   one. */
static void
widen(Split *s, ScanState *state, int64_t j)
{
    int32_t *radii = s->radii;
    for (int64_t i = j - 1; i >= 0; i--)
        radii[i] = ((const uint8_t *)s->radii)[i];
    radii[j] = (int32_t)state->best_len;
    s->wide = 1;
    scan_range(s->text, 0, s->radii, 1, state, j + 1, s->size);
}

/* The calling thread's scan on from center m, at one byte, after it has
   joined the helper: step by step until it resynchronizes to the
   helper's scan, then whatever the helper did not reach (split_scan).
   Returns size, or the center whose radius outgrew the byte. */
static int64_t
resync(Split *s, ScanState *state)
{
    const ScanState *end = &s->marks[s->done];
    for (int64_t i = 0; i < s->done; i++) {
        int64_t c = step_start(s, i), next = step_start(s, i + 1);
        const ScanState *mark = &s->marks[i];
        if (c > end->touch && state->ref == mark->ref && state->right == mark->right) {
            int helpers = end->best_len > state->best_len;
            *state = (ScanState){
                .ref = end->ref,
                .right = end->right,
                .best = helpers ? end->best : state->best,
                .best_len = helpers ? end->best_len : state->best_len,
                .comparisons = state->comparisons + end->comparisons - mark->comparisons,
                .tail = end->tail,
            };
            break;
        }
        int64_t j = scan_range(s->text, 0, s->radii, 0, state, c, next);
        if (j < next)
            return j;
    }
    return scan_range(s->text, 0, s->radii, 0, state, step_start(s, s->done), s->size);
}

/* The s->size centers of s->text into s->radii from SCAN_START, as one
   scan_range would write them at four bytes, with the same comparisons
   and best center, on up to two threads, at one byte per entry until a
   radius exceeds BYTE_LIMIT. Like that scan_range it leaves the tail
   right of the final reference unwritten, but for the rest of a step
   that an end-reaching palindrome only ties (see SCAN).

   From the split point m on, a helper thread scans [m, size) with floor
   m/2, while this thread scans [0, m). Every palindrome the helper knows
   lies right of m, so every reference of its scan, and every mirror
   center k it reads, lies at or right of m. The floor keeps them there:
   with floor 0 the helper's palindromes cross m, and it reads mirror
   entries left of m that this thread may not have written yet. Under
   that mutant the small model (see helper), whose helper scans first,
   gets up to 774 of 26,169 texts wrong; run the other way round, none.
   Its entry at k is the true radius cut back to the floor:
   min(r, k - m). A cut entry reaches back to m, so it is never strictly
   inside a reference palindrome, which also lies right of m, and the
   true entry, reaching at least as far left, is not inside either: a cut
   entry never changes a mirror decision, and it is never copied. The
   helper's scan therefore differs from the sequential one only through
   its state, (ref, right), and through an expansion stopped at the
   floor, a touch.

   When this thread has reached m, it makes the helper stop after its
   current step and joins it. Then it scans on from m, step by step,
   until it reaches a step start c past the helper's last touch where its
   own (ref, right) equals the helper's mark. From c on, the helper's scan
   is the sequential scan: the same decisions, the same comparisons, the
   same entries, whether the mirror entry it reads lies before c, where
   this thread has rewritten it, or after. So this thread adds the
   helper's comparisons after c, takes over its end state, and scans
   whatever the helper did not reach. The best center stays this thread's
   unless the helper's is strictly longer, which puts it at or after c:
   an entry the helper wrote before c is at most the true one, which this
   thread has already seen, and every entry it wrote from c on is true.

   Both threads scan at one byte per entry. A helper whose radius exceeds
   BYTE_LIMIT stops in mid-step as if told to quit; that state is not
   recorded, so marks[0..done] hold, the centers before step_start(done)
   are final in its scan, and all of the above stands. Where this
   thread's scan stops at a center j whose radius exceeds BYTE_LIMIT, the
   helper has been joined (at m, or here, before m), the entries before j
   are the sequential scan's, as bytes (its own, and from c on the
   helper's if it adopted them), and state is the sequential scan's after
   j. This thread widens the entries before j in place, writes j's and
   scans (j, size) alone at four bytes: the sequential scan from there,
   with every entry written before it is read, since a mirror center lies
   left of the center it serves. A helper scan not adopted by then is
   dropped: its bytes lie where the wide entries now go. A helper that
   stopped at BYTE_LIMIT and was adopted leaves this thread to scan on
   from step_start(done), and to widen where its own scan stops.

   Neither thread writes the tail. Where the sequential scan reaches it at
   a center after c, the helper's scan reaches it there too, and this
   thread adopts its tail with the rest of its state. Where it reaches it
   before, this thread's scan does too, and resync's later ranges return
   at once, leaving the entries from this thread's tail on as the helper
   left them. If this thread adopts the helper's scan at a c past that
   point, their (ref, right) are equal, so the helper's scan reached the
   tail at the same center, in the same step, since both step from m at
   the same step starts. It set its tail at the step's end, as this
   thread did, or at the center after, where that center beat its own
   best but only tied this thread's; not the other way round, since its
   best is never above this thread's: every radius it writes is at most
   the true one. So the adopted tail is at or before this thread's, and
   the entries before it are this thread's. Either way the entries before
   the final tail are the sequential scan's, and fill_tail reads no other.

   This thread scans alone where m is 0, below SPLIT_SIZE or without a
   split point, and when no thread starts. Without a split point the
   text around the middle is one symbol repeated, and its palindromes
   cross any point the helper could start from. Memory: one thread stack
   and the marks, whatever the text holds. */
static void
split_scan(Split *s, ScanState *state)
{
    pthread_t thread;
    int helped = s->m != 0 && pthread_create(&thread, NULL, helper, s) == 0;
#ifdef HELPER_STEPS
    if (helped) /* the small model's helper meets [0, m) unwritten (see above) */
        join_helper(s, thread);
#endif
    int64_t j = scan_range(s->text, 0, s->radii, 0, state, 0, helped ? s->m : s->size);
    if (helped) {
#ifndef HELPER_STEPS
        join_helper(s, thread);
#endif
        if (j == s->m)
            j = resync(s, state);
    }
    if (j < s->size)
        widen(s, state, j);
}

/* "00" to "99": two digits per division. */
static const char PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* v < 10^4 as exactly four digits, zero-padded. */
static inline void put4(char *p, uint32_t v)
{
    memcpy(p, PAIRS + 2 * (v / 100), 2);
    memcpy(p + 2, PAIRS + 2 * (v % 100), 2);
}

/* v < 10^4 without leading zeros; returns the end. The digit count is
   known before any digit is written, so each lands in its final place. */
static inline char *put_lead(char *p, uint32_t v)
{
    if (v < 10) {
        *p = (char)('0' + v);
        return p + 1;
    }
    if (v < 100) {
        memcpy(p, PAIRS + 2 * v, 2);
        return p + 2;
    }
    if (v < 1000) {
        *p = (char)('0' + v / 100);
        memcpy(p + 1, PAIRS + 2 * (v % 100), 2);
        return p + 3;
    }
    put4(p, v);
    return p + 4;
}

/* v in decimal as 4-digit groups: the leading group without zeros, every
   later group padded to four digits; returns the end. */
static inline char *put_decimal(char *p, uint32_t v)
{
    if (v < 10000)
        return put_lead(p, v);
    p = put_decimal(p, v / 10000);
    put4(p, v % 10000);
    return p + 4;
}

/* radii[start:stop], one byte per entry or, if wide, four, none of them
   negative, as decimals, each followed by a comma, into out, which holds
   FORMAT_BYTES per entry; returns the end. */
static inline __attribute__((always_inline)) char *
format_range(const void *radii, int wide, Py_ssize_t start, Py_ssize_t stop, char *end)
{
    for (Py_ssize_t i = start; i < stop; i++) {
        uint32_t radius = wide ? (uint32_t)((const int32_t *)radii)[i] : ((const uint8_t *)radii)[i];
        if (radius < 10) {
            end[0] = (char)('0' + radius);
            end[1] = ',';
            end += 2;
            continue;
        }
        end = put_decimal(end, radius);
        *end++ = ',';
    }
    return end;
}

/* Centers [tail, size) of a finished scan's table, one byte per entry
   or, if wide, four: the tail SCAN leaves unwritten, right of the
   reference, whose palindrome reaches the end, right = 2n = size - 1.
   Each entry is the smaller of its mirror entry, left of the reference,
   and its distance to the end. */
static void
fill_tail(void *radii, int wide, const ScanState *state, int64_t size)
{
    int64_t ref = state->ref, right = state->right;
    if (wide) {
        int32_t *r = radii;
        for (int64_t j = state->tail; j < size; j++)
            r[j] = r[2 * ref - j] < right - j ? r[2 * ref - j] : (int32_t)(right - j);
    } else {
        uint8_t *r = radii;
        for (int64_t j = state->tail; j < size; j++)
            r[j] = r[2 * ref - j] < right - j ? r[2 * ref - j] : (uint8_t)(right - j);
    }
}

/* The scan that scan and longest share: object is a str or a bytes-like object
   of n symbols, scanned from SCAN_START into a new bytearray of 4(2n+1)
   bytes, not zero-filled (SCAN_START writes every entry before it reads
   it), whose first 2n+1 bytes are a one-byte table unless *wide. Its
   state is left in state and its tail is unwritten. Returns the table,
   or NULL with an exception set. Memory: the table, of which a one-byte
   table touches the first quarter, and the tail none. */
static PyObject *
scan_text(PyObject *object, ScanState *state, int *wide)
{
    Text text;
    if (text_open(object, &text) < 0)
        return NULL;
    int64_t size = 2 * text.n + 1;
    PyObject *table = PyByteArray_FromStringAndSize(NULL, 4 * size);
    if (table != NULL) {
        Split s = {.text = &text, .radii = PyByteArray_AS_STRING(table), .m = split_point(&text, size),
                   .size = size, .lock = PTHREAD_MUTEX_INITIALIZER};
        split_scan(&s, state);
        *wide = s.wide;
    }
    PyBuffer_Release(&text.buffer);
    return table;
}

/* scan(text) -> (table, comparisons, center): the table of scan_text
   with its tail filled, a new bytearray of the text's 2n+1 radii, as
   uint8 if every radius fits BYTE_LIMIT and as int32 otherwise, so its
   length, 2n+1 or 4(2n+1), tells which. A one-byte table is shrunk
   after the scan. */
static PyObject *
scan(PyObject *Py_UNUSED(self), PyObject *object)
{
    ScanState state = SCAN_START;
    int wide;
    PyObject *table = scan_text(object, &state, &wide);
    if (table == NULL)
        return NULL;
    int64_t size = PyByteArray_GET_SIZE(table) / 4;
    fill_tail(PyByteArray_AS_STRING(table), wide, &state, size);
    if (!wide && PyByteArray_Resize(table, size) < 0) {
        Py_DECREF(table);
        return NULL;
    }
    return Py_BuildValue("NLL", table, (long long)state.comparisons, (long long)state.best);
}

/* longest(text) -> (comparisons, center, length): scan's comparisons and
   center, and the center's radius, the length of the longest palindrome,
   from scan_text, whose table is freed unfilled. */
static PyObject *
longest(PyObject *Py_UNUSED(self), PyObject *object)
{
    ScanState state = SCAN_START;
    int wide;
    PyObject *table = scan_text(object, &state, &wide);
    if (table == NULL)
        return NULL;
    Py_DECREF(table);
    return Py_BuildValue("LLL", (long long)state.comparisons, (long long)state.best, (long long)state.best_len);
}

/* write_table(table, write, chunk) -> None: table is a C-contiguous
   buffer of format B (uint8) or i (int32) of at least one entry, none
   negative, as a memoryview over scan's table; any other format raises
   TypeError. Passes each chunk entries of the table to write as the
   decimals str() gives, comma separated, a comma between chunks and a
   newline at the end, formatted into one reused bytearray of
   FORMAT_BYTES per chunk entry, as a memoryview of it. An exception from
   write or a signal handler propagates. */
static PyObject *
write_table(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *object, *write, *buffer = NULL, *view = NULL;
    Py_ssize_t chunk;
    if (!PyArg_ParseTuple(args, "OOn:write_table", &object, &write, &chunk))
        return NULL;
    if (chunk < 1)
        return PyErr_Format(PyExc_ValueError, "chunk must be at least 1, got %zd", chunk);
    Py_buffer table;
    if (PyObject_GetBuffer(object, &table, PyBUF_ND | PyBUF_FORMAT) < 0)
        return NULL;
    int wide = strcmp(table.format, "i") == 0;
    int64_t size = table.len / table.itemsize;
    chunk = chunk < size ? chunk : size;
    if (!wide && strcmp(table.format, "B") != 0)
        PyErr_Format(PyExc_TypeError, "write_table takes a table of format 'B' or 'i', got '%s'", table.format);
    else if ((buffer = PyByteArray_FromStringAndSize(NULL, FORMAT_BYTES * chunk)) != NULL)
        view = PyMemoryView_FromObject(buffer);
    int failed = view == NULL;
    for (int64_t start = 0; start < size && !failed; start += chunk) {
        int64_t stop = start + chunk < size ? start + chunk : size;
        if ((failed = PyErr_CheckSignals() < 0))
            break;
        char *base = PyByteArray_AS_STRING(buffer);
        char *end = wide ? format_range(table.buf, 1, start, stop, base)
                         : format_range(table.buf, 0, start, stop, base);
        if (stop == size)
            end[-1] = '\n'; /* in place of the last comma */
        PyObject *slice = PySequence_GetSlice(view, 0, end - base);
        PyObject *written = slice ? PyObject_CallOneArg(write, slice) : NULL;
        failed = written == NULL;
        Py_XDECREF(written);
        Py_XDECREF(slice);
    }
    Py_XDECREF(view);
    Py_XDECREF(buffer);
    PyBuffer_Release(&table);
    if (failed)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"scan", scan, METH_O, "scan(text) -> (table, comparisons, center)"},
    {"longest", longest, METH_O, "longest(text) -> (comparisons, center, length)"},
    {"write_table", write_table, METH_VARARGS, "write_table(table, write, chunk) -> None"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, .m_name = "_manacher", .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC
PyInit__manacher(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && (PyModule_AddIntConstant(m, "SPLIT_SIZE", SPLIT_SIZE) < 0 ||
                      PyModule_AddIntConstant(m, "FORMAT_BYTES", FORMAT_BYTES) < 0))
        Py_CLEAR(m);
    return m;
}
_Static_assert(sizeof(int) == sizeof(int32_t), "lps.native reads the int32 table as C int (format \"i\")");
