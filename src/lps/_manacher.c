/* Compiled index-mapped Manacher scan, loaded by lps/native.py.

   scan() is the loop of lps.core.python_radii, line for line: it writes
   the 2n+1 radii of `text` into `radii` and returns the number of real
   symbol comparisons, the same count the Python engine reports. The two
   exported scans differ only in the symbol width (bytes or ASCII text,
   and UTF-32 code points). The caller keeps 2n+1 below 2^31, so every
   index and radius fits the int32_t table. */

#include <stdint.h>

static inline __attribute__((always_inline)) int64_t
scan(const void *text, int wide, int64_t n, int32_t *radii)
{
    const uint8_t *narrow_text = text;
    const uint32_t *wide_text = text;
    int64_t comparisons = 0, ref = 0, right = 0;
    for (int64_t j = 0; j < 2 * n + 1; j++) {
        int64_t radius;
        if (j <= right) {
            int64_t k = 2 * ref - j;
            if (k - radii[k] > 2 * ref - right) {
                radii[j] = radii[k];
                continue;
            }
            radius = right - j;
        } else {
            radius = j & 1;
        }
        int64_t lo = ((j - radius) >> 1) - 1, hi = (j + radius) >> 1;
        while (lo >= 0 && hi < n) {
            comparisons++;
            if (wide ? wide_text[lo] != wide_text[hi] : narrow_text[lo] != narrow_text[hi])
                break;
            lo--;
            hi++;
        }
        radius = hi - lo - 1;
        radii[j] = (int32_t)radius;
        if (j + radius > right) {
            ref = j;
            right = j + radius;
        }
    }
    return comparisons;
}

int64_t lps_radii_u8(const uint8_t *text, int64_t n, int32_t *radii)
{
    return scan(text, 0, n, radii);
}

int64_t lps_radii_u32(const uint32_t *text, int64_t n, int32_t *radii)
{
    return scan(text, 1, n, radii);
}

/* Index of the maximum of radii[0..size), size >= 1; the leftmost wins ties. */
int64_t lps_argmax(const int32_t *radii, int64_t size)
{
    int64_t best = 0;
    for (int64_t i = 1; i < size; i++)
        if (radii[i] > radii[best])
            best = i;
    return best;
}

/* Write radii[0..count) to `out` as comma-separated decimals, the text
   str() gives for each entry, and return the number of bytes written.
   The caller provides 12 bytes per entry: "-2147483648" plus a comma. */
int64_t lps_format_radii(const int32_t *radii, int64_t count, char *out)
{
    char *end = out;
    for (int64_t i = 0; i < count; i++) {
        if (i)
            *end++ = ',';
        uint32_t magnitude = (uint32_t)radii[i];
        if (radii[i] < 0) {
            *end++ = '-';
            magnitude = -magnitude;
        }
        char digits[10];
        int used = 0;
        do {
            digits[used++] = (char)('0' + magnitude % 10);
            magnitude /= 10;
        } while (magnitude);
        while (used)
            *end++ = digits[--used];
    }
    return end - out;
}
