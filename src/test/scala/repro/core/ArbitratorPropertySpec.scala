package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.sim.{GcModel, Hardware, MemoryConf}

/** Algorithm 1's safety condition on generated profiles, beyond the six
  * calibrated AppModels: every plan the Arbitrator returns keeps the
  * long-term demand within Old (Eq 3, through the shared MemoryConf formula)
  * and beside the reserved region, and the knob settings RelM materialises
  * give the simulator the same Old pool the Arbitrator reasoned about.
  */
class ArbitratorPropertySpec extends AnyFunSuite {

  /** A profile of one run on `hw`: every pool within that run's heap. */
  private def stats(hw: Hardware): Gen[Stats] = for {
    n      <- Gen.oneOf(hw.containerChoices)
    p      <- Gen.choose(1, hw.maxConcurrency(n))
    mh      = hw.heapMb(n)
    cpu    <- Gen.choose(0.0, 100.0)
    disk   <- Gen.choose(0.0, 100.0)
    mi     <- Gen.choose(0.0, 0.2 * mh)
    mc     <- Gen.frequency(1 -> Gen.const(0.0), 3 -> Gen.choose(0.0, mh - mi))
    ms     <- Gen.frequency(1 -> Gen.const(0.0), 3 -> Gen.choose(0.0, mh))
    mu     <- Gen.choose(1.0, mh)
    h      <- Gen.choose(0.01, 1.0)
    s      <- Gen.choose(0.0, 1.0)
    fullGc <- Gen.oneOf(true, false)
  } yield Stats(n, mh, cpu, disk, mi, mc, ms, mu, p, h, s, fullGc)

  for (hw <- Seq(Hardware.ClusterA, Hardware.ClusterB)) {
    test(s"Cluster ${hw.name}: every arbitrated plan is safe and materialises the Old it reasoned about") {
      var plans = 0
      val prop = Prop.forAll(stats(hw), Gen.oneOf(hw.containerChoices)) { (st, n) =>
        val mh = hw.heapMb(n)
        val ic = Initializer.init(st, n, mh, hw.maxConcurrency(n))
        Arbitrator.arbitrate(st, n, mh, ic) match {
          case None => Prop.passed // rejected: no safe plan at this size
          case Some(a) =>
            plans += 1
            val demand = st.miMb + a.p * st.muMb + a.mcMb
            val old = MemoryConf.oldMb(mh, a.nr)
            val materialised = RelM.toConf(hw, a).oldMb
            Prop.all(
              (demand <= old) :| s"demand $demand > Old $old",
              (demand <= mh - GcModel.Constants.jvmReservedMb) :| s"demand $demand beside reserved region",
              (materialised == old) :| s"toConf Old $materialised != arbitrated Old $old",
            )
        }
      }
      val params = Test.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(42L))
      val result = Test.check(params, prop)
      assert(result.passed, Pretty.pretty(result))
      assert(plans > 200, s"only $plans of 2000 cases produced a plan")
    }
  }
}
