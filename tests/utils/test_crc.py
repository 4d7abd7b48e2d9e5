from repro.utils.crc import crc32_config_word, crc32_update, crc32_xilinx


class TestCrcUpdate:
    def test_zero_stream_nonzero_table_behaviour(self):
        # CRC of all-zero input stays zero for this unseeded variant
        assert crc32_update(0, 0, 32) == 0

    def test_deterministic(self):
        a = crc32_update(0, 0xAA995566, 32)
        b = crc32_update(0, 0xAA995566, 32)
        assert a == b != 0

    def test_order_sensitivity(self):
        one = crc32_update(crc32_update(0, 1, 32), 2, 32)
        two = crc32_update(crc32_update(0, 2, 32), 1, 32)
        assert one != two

    def test_width_8(self):
        assert crc32_update(0, 0xFF, 8) == crc32_update(0, 0xFF, 8)


class TestConfigWordCrc:
    def test_register_address_is_hashed(self):
        a = crc32_config_word(0, 0x1234, 1)
        b = crc32_config_word(0, 0x1234, 2)
        assert a != b

    def test_single_bit_flip_changes_crc(self):
        base = crc32_config_word(0, 0x0, 2)
        for bit in (0, 7, 31):
            assert crc32_config_word(0, 1 << bit, 2) != base

    def test_unrolled_word_matches_the_byte_loop(self):
        """The five unrolled byte steps are crc32_update's, data word
        first (masked to 32 bits), then the 5-bit address byte."""
        seeds = (0, 1, 0x8000_0000, 0xFFFF_FFFF, 0x1234_5678)
        words = (0, 0xAA99_5566, 0xFFFF_FFFF, 0x1_0000_0001, 0x2000_0000)
        for crc in seeds:
            for word in words:
                for reg in (0, 2, 0x1F, 0x25):
                    reference = crc32_update(
                        crc32_update(crc, word & 0xFFFF_FFFF, 32),
                        reg & 0x1F, 8)
                    assert crc32_config_word(crc, word, reg) == reference

    def test_sequence_helper_matches_manual(self):
        pairs = [(0x11, 1), (0x22, 2), (0x33, 4)]
        manual = 0
        for word, reg in pairs:
            manual = crc32_config_word(manual, word, reg)
        assert crc32_xilinx(pairs) == manual

    def test_empty_sequence(self):
        assert crc32_xilinx([]) == 0


class TestGoldenVectors:
    """Hard-coded CRCs minted from an independent bit-at-a-time engine.

    The constants below were produced by shifting the Castagnoli
    polynomial one bit at a time (no byte table, no numpy), so they
    catch table-construction and vectorization bugs alike.  The word
    streams are the canonical 7-series configuration prologue the
    bitstreams in this repo carry (Xilinx UG470 Table 6-1 register
    addresses): MASK, IDCODE, CMD=WCFG, FAR, then an FDRI burst.
    """

    #: (word, register) pairs hashed after the RCRC that zeroes the CRC
    PROLOGUE = (
        (0x00000000, 0x06),  # MASK
        (0x03BE1100, 0x0C),  # IDCODE (XC7K325T)
        (0x00000001, 0x04),  # CMD = WCFG
        (0x00400000, 0x01),  # FAR
    )
    FDRI_BURST = tuple((0xDEAD0000 + i, 0x02) for i in range(16))

    @staticmethod
    def _bit_reference(crc, value, width):
        poly, mask = 0x1EDC6F41, 0xFFFF_FFFF
        for i in range(width - 1, -1, -1):
            bit = (value >> i) & 1
            top = (crc >> 31) & 1
            crc = (crc << 1) & mask
            if top ^ bit:
                crc ^= poly
        return crc

    def test_prologue_golden(self):
        assert crc32_xilinx(self.PROLOGUE) == 0xAB61BE17

    def test_prologue_plus_fdri_golden(self):
        assert crc32_xilinx(self.PROLOGUE + self.FDRI_BURST) == 0x08311D4B

    def test_single_pair_goldens(self):
        assert crc32_config_word(0, 0xAA995566, 0x02) == 0x5447E9A2
        assert crc32_config_word(0, 0x0000000D, 0x04) == 0x25660CD9

    def test_scalar_agrees_with_bit_reference(self):
        crc = 0
        for word, reg in self.PROLOGUE + self.FDRI_BURST:
            crc = self._bit_reference(crc, word, 32)
            crc = self._bit_reference(crc, reg & 0x1F, 8)
        assert crc == crc32_xilinx(self.PROLOGUE + self.FDRI_BURST)

    def test_vectorized_fdri_agrees_with_golden(self):
        import numpy as np

        from repro.utils.crc import crc32_config_words

        seed = crc32_xilinx(self.PROLOGUE)
        words = np.array([w for w, _ in self.FDRI_BURST], dtype=np.uint32)
        assert crc32_config_words(seed, words, 0x02) == 0x08311D4B


class TestBuildTablePurity:
    def test_returns_fresh_tuple_per_call(self):
        from repro.utils.crc import build_table

        a = build_table()
        b = build_table()
        assert a == b and isinstance(a, tuple) and len(a) == 256

    def test_alternate_polynomial(self):
        from repro.utils.crc import build_table

        ieee = build_table(0x04C11DB7)
        castagnoli = build_table()
        assert ieee != castagnoli
        assert ieee[0] == castagnoli[0] == 0
