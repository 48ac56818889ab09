package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class CheckSpec extends AnyFunSuite {
  private val ref = Map(1L -> Array(0.5, -1.0), 2L -> Array(2.0, 0.0), 3L -> Array(0.0, 3.0))
  private def exact = ref.toArray.map { case (id, h) => (id, h.clone()) }

  test("an exact output passes and a perturbed, missing or thrown op each fail once") {
    val tally = new Tally
    tally.record(Check.attempt(exact, ref))
    assert(tally.failed == 0)

    val perturbed = exact
    perturbed(1)._2(0) += 1e-6
    tally.record(Check.attempt(perturbed, ref))
    assert(tally.failed == 1)

    tally.record(Check.attempt(exact.drop(1), ref))
    assert(tally.failed == 2)

    tally.record(Check.attempt(throw new RuntimeException("backend crashed"), ref))
    assert((tally.attempted, tally.failed) == ((4, 3)))
  }

  test("differences within the tolerance pass; NaN, duplicates and wrong dims do not") {
    val close = exact
    close(0)._2(1) += 0.5e-8
    assert(Check.verify(close, ref).isEmpty)

    val nan = exact
    nan(2)._2(0) = Double.NaN
    assert(Check.verify(nan, ref).exists(_.contains("differs")))

    val dup = exact
    dup(2) = dup(0)
    assert(Check.verify(dup, ref).exists(_.contains("twice")))

    val short = exact
    short(0) = (short(0)._1, Array(0.5))
    assert(Check.verify(short, ref).exists(_.contains("dim")))
  }
}
