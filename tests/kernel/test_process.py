import pytest

from repro.kernel.process import ProcessError
from repro.vm import address as vaddr


def test_alloc_page_aligned_and_disjoint(kernel):
    process = kernel.create_process("p")
    a = process.alloc(100, "a")
    b = process.alloc(100, "b")
    assert a % vaddr.PAGE_SIZE == 0
    assert b % vaddr.PAGE_SIZE == 0
    assert not vaddr.same_page(a, b)


def test_alloc_rounds_to_pages(kernel):
    process = kernel.create_process("p")
    base = process.alloc(vaddr.PAGE_SIZE + 1, "big")
    vma = process.vma_containing(base)
    assert vma.size == 2 * vaddr.PAGE_SIZE


def test_alloc_populates_mappings(kernel):
    process = kernel.create_process("p")
    base = process.alloc(4096, "data")
    assert process.page_tables.is_present(base)
    assert vaddr.vpn(base) in process.page_frames


def test_lazy_alloc_not_mapped(kernel):
    process = kernel.create_process("p")
    base = process.alloc(4096, "lazy", populate=False)
    walk = process.page_tables.software_walk(base)
    assert not walk.present


def test_ensure_mapped_demand_pages(kernel):
    process = kernel.create_process("p")
    base = process.alloc(4096, "lazy", populate=False)
    frame = process.ensure_mapped(base + 100)
    assert process.page_tables.is_present(base)
    assert process.page_frames[vaddr.vpn(base)] == frame


def test_ensure_mapped_outside_vma_raises(kernel):
    process = kernel.create_process("p")
    with pytest.raises(ProcessError):
        process.ensure_mapped(0x7FFF_0000_0000)


def test_vma_named(kernel):
    process = kernel.create_process("p")
    process.alloc(4096, "special")
    assert process.vma_named("special").name == "special"
    with pytest.raises(ProcessError):
        process.vma_named("missing")


def test_debug_read_write(kernel):
    process = kernel.create_process("p")
    base = process.alloc(4096, "data")
    process.write(base + 8, 777)
    assert process.read(base + 8) == 777


def test_write_words_read_words(kernel):
    process = kernel.create_process("p")
    base = process.alloc(4096, "data")
    process.write_words(base, [1, 2, 3])
    assert process.read_words(base, 3) == [1, 2, 3]
    process.write_words(base, [9, 8], width=4)
    assert process.read_words(base, 2, width=4) == [9, 8]


def test_translate_any_survives_present_clear(kernel):
    """The kernel can still find the frame of a non-present page —
    what lets the Replayer probe during the attack."""
    process = kernel.create_process("p")
    base = process.alloc(4096, "data")
    process.write(base, 42)
    kernel.set_present(process, base, False)
    with pytest.raises(Exception):
        process.translate(base)
    assert process.read(base) == 42  # translate_any path


def test_translate_any_keeps_the_page_offset(kernel):
    process = kernel.create_process("p")
    base = process.alloc(2 * 4096, "data")
    for va in (base, base + 0x123, base + 4096 + 0xFFF):
        frame = process.page_frames[vaddr.vpn(va)]
        assert process.translate_any(va) \
            == (frame << vaddr.PAGE_SHIFT) | vaddr.page_offset(va)


@pytest.mark.parametrize("va", [-1, vaddr.MAX_VADDR, vaddr.MAX_VADDR + 64])
def test_translate_any_rejects_an_out_of_range_va(kernel, va):
    """The range check is ``check_vaddr``'s, with its error."""
    process = kernel.create_process("p")
    with pytest.raises(ValueError, match="virtual address out of range"):
        process.translate_any(va)


def test_translate_any_refuses_a_page_without_a_frame(kernel):
    process = kernel.create_process("p")
    lazy = process.alloc(4096, "lazy", populate=False)
    for va in (lazy, lazy + 8, 0x7000_0000):
        with pytest.raises(ProcessError, match="has no backing frame"):
            process.translate_any(va)


def test_distinct_pcids(kernel):
    p1 = kernel.create_process("a")
    p2 = kernel.create_process("b")
    assert p1.pcid != p2.pcid
    assert p1.root_frame != p2.root_frame
